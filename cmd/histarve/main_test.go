package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs the Theorem 17 adversary with a small round budget and
// requires the expected outcome (Algorithm 2 starved, Algorithm 4 not).
func TestSmoke(t *testing.T) {
	*expFlag = "E4"
	*roundsFlag = 200
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	runErr := runSelected()
	os.Stdout = orig
	w.Close()
	out, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatalf("histarve -exp E4 failed: %v\n%s", runErr, out)
	}
	if !strings.Contains(string(out), "conclusion") {
		t.Errorf("output missing the E4 conclusion:\n%s", out)
	}
}

// TestUnknownExperiment: a typo in -exp must fail before anything runs,
// with an error naming the unknown ID.
func TestUnknownExperiment(t *testing.T) {
	*expFlag = "E99"
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	runErr := runSelected()
	os.Stdout = orig
	w.Close()
	out, _ := io.ReadAll(r)
	if runErr == nil || !strings.Contains(runErr.Error(), `"E99"`) {
		t.Fatalf("-exp E99: err = %v, want an unknown-experiment error naming E99", runErr)
	}
	if len(out) != 0 {
		t.Fatalf("-exp E99 ran experiments before rejecting the list:\n%s", out)
	}
}

// TestRoundsRange: a round budget below 1 must fail with a flag error
// before any adversary runs, not report a verdict over zero rounds.
func TestRoundsRange(t *testing.T) {
	*expFlag = "all"
	*roundsFlag = 0
	t.Cleanup(func() { *roundsFlag = 1000 })
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	runErr := runSelected()
	os.Stdout = orig
	w.Close()
	out, _ := io.ReadAll(r)
	if runErr == nil || !strings.Contains(runErr.Error(), "bad -rounds:") {
		t.Fatalf("-rounds 0: err = %v, want a -rounds flag error", runErr)
	}
	if len(out) != 0 {
		t.Fatalf("-rounds 0 ran adversaries before rejecting the flag:\n%s", out)
	}
}
