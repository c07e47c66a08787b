package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestSmoke renders all three trace figures in-process and checks that
// the annotated configurations appear.
func TestSmoke(t *testing.T) {
	*expFlag = "all"
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	runErr := run()
	os.Stdout = orig
	w.Close()
	out, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatal(runErr)
	}
	for _, want := range []string{"E3", "E6", "E25", "native flight recording", ">>> invoke", "<<< return"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestUnknownExperiment: a typo in -exp must fail loudly instead of
// rendering nothing.
func TestUnknownExperiment(t *testing.T) {
	*expFlag = "E3,E99"
	if err := run(); err == nil || !strings.Contains(err.Error(), `"E99"`) {
		t.Fatalf("-exp E3,E99: err = %v, want an unknown-experiment error naming E99", err)
	}
}
