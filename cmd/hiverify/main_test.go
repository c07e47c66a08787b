package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// runExp runs the experiments named by exps in-process at the shallow
// depth and returns what they printed and runSelected's verdict.
func runExp(t *testing.T, exps string) (string, error) {
	t.Helper()
	*expFlag = exps
	*deepFlag = false
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
	return string(out), runErr
}

// requireRun runs exps, requires overall success and every wanted
// fragment in the output.
func requireRun(t *testing.T, exps string, wants ...string) {
	t.Helper()
	out, err := runExp(t, exps)
	if err != nil {
		t.Fatalf("hiverify -exp %s: %v\n%s", exps, err, out)
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSmoke runs the two cheapest verification experiments in-process and
// requires overall success: E1 (the Algorithm 1 refutation) and E21 (the
// HICHT hash table checks).
func TestSmoke(t *testing.T) {
	requireRun(t, "E1,E21", "REFUTED(expected)", "PASS")
}

// TestSmokeE23 runs the adversarial-observer family in-process: twin
// raw dumps, sim crash-schedule enumeration, and the native Kill matrix.
func TestSmokeE23(t *testing.T) {
	if testing.Short() {
		t.Skip("E23 enumerates displacing crash schedules")
	}
	requireRun(t, "E23", "bounded twins", "displacing twins", "sim crash schedules", "native Kill matrix")
}

// TestSmokeE25 runs the flight-recorder family in-process: a recorded
// native stress run and a recorded faultinject crash schedule, both
// machine-checked for linearizability, plus the corruption rejection.
func TestSmokeE25(t *testing.T) {
	requireRun(t, "E25", "recorded stress run", "recorded crash schedule", "corrupted recording rejected", "linearizable")
}

// TestSmokeE26 runs the read-path family in-process: a recorded
// lookup-heavy run machine-checked for linearizability, reads against
// a parked relocation mark, and twin raw dumps built under concurrent
// reader hammering.
func TestSmokeE26(t *testing.T) {
	requireRun(t, "E26", "recorded lookup-heavy run", "park-at-mark", "twins under readers")
}

// TestUnknownExperiment: a typo in -exp must fail before anything runs,
// not silently select nothing.
func TestUnknownExperiment(t *testing.T) {
	out, err := runExp(t, "E1,E99")
	if err == nil || !strings.Contains(err.Error(), `"E99"`) {
		t.Fatalf("-exp E1,E99: err = %v, want an unknown-experiment error naming E99", err)
	}
	if out != "" {
		t.Fatalf("-exp E1,E99 ran experiments before rejecting the list:\n%s", out)
	}
}
