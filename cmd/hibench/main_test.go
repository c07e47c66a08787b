package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"hiconc/internal/benchfmt"
)

// captureStdout runs f with os.Stdout redirected and returns what it
// printed, keeping test logs readable.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = orig
	w.Close()
	out, _ := io.ReadAll(r)
	if ferr != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", ferr, out)
	}
	return string(out)
}

// captureStdoutErr is captureStdout for runs whose error the test wants
// to inspect instead of failing on.
func captureStdoutErr(f func() error) (string, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return "", err
	}
	orig := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = orig
	w.Close()
	out, _ := io.ReadAll(r)
	return string(out), ferr
}

// resetBench gives each smoke test a fresh recorder and baseline flags
// (the flag globals are shared package state).
func resetBench(t *testing.T) {
	t.Helper()
	rec = benchfmt.NewRecorder()
	*expFlag = "all"
	*opsFlag = 2000
	*jsonFlag = false
	*checkFlag = false
	*tolFlag = 0.5
	*maxOverheadFlag = 2.0
	*watchFlag = false
	*tickFlag = 500 * time.Millisecond
	*httpFlag = ""
	*recordFlag = ""
}

// TestSmoke runs benchmark families with tiny parameters and -json,
// and checks that the machine-readable results are written and parse.
func TestSmoke(t *testing.T) {
	t.Chdir(t.TempDir())
	resetBench(t)
	*expFlag = "E10,E21,E22,E23,E24,E25"
	*jsonFlag = true
	out := captureStdout(t, run)
	for _, want := range []string{"E10", "E21", "E22", "E23", "E24", "E25", "ns",
		"raw dumps with metrics enabled vs disabled identical: true",
		"raw dumps with recording enabled vs disabled identical: true",
		"linearizable: true", "corrupted recording rejected by extraction: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, name := range []string{"BENCH_E10.json", "BENCH_E21.json", "BENCH_E22.json", "BENCH_E23.json", "BENCH_E24.json", "BENCH_E25.json"} {
		buf, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		var doc struct {
			Exp     string `json:"exp"`
			Results []struct {
				Case   string  `json:"case"`
				Metric string  `json:"metric"`
				Value  float64 `json:"value"`
			} `json:"results"`
		}
		if err := json.Unmarshal(buf, &doc); err != nil {
			t.Fatalf("%s does not parse: %v", name, err)
		}
		if len(doc.Results) == 0 {
			t.Errorf("%s has no result rows", name)
		}
		for _, r := range doc.Results {
			// Latency and throughput rows must be positive; counters like
			// retries/read may legitimately be zero, and a measured A/B
			// overhead percentage can dip negative in timing noise.
			if r.Case == "" || r.Metric == "" || (r.Value < 0 && r.Metric != "percent") || (r.Metric == "ns/op" && r.Value == 0) {
				t.Errorf("%s has a malformed row: %+v", name, r)
			}
		}
	}
	// E24's machine-checked rows: the overhead gate input and the HI
	// boundary verdict must be present.
	e24, err := benchfmt.ReadFile("BENCH_E24.json")
	if err != nil {
		t.Fatal(err)
	}
	if e24.Find("set/computed-overhead", "percent") == nil {
		t.Error("BENCH_E24.json missing the computed-overhead row")
	}
	if r := e24.Find("hi/rawdump-identical", "bool"); r == nil || r.Value != 1 {
		t.Errorf("BENCH_E24.json HI-boundary row missing or false: %+v", r)
	}
	// E25's machine-checked rows: the overhead gate input, the
	// linearizability verdict on the recorded run, the corruption
	// rejection and the HI-boundary verdict.
	e25, err := benchfmt.ReadFile("BENCH_E25.json")
	if err != nil {
		t.Fatal(err)
	}
	if e25.Find("set/computed-overhead", "percent") == nil {
		t.Error("BENCH_E25.json missing the computed-overhead row")
	}
	for _, kase := range []string{"check/linearizable", "check/corrupt-rejected", "hi/rawdump-identical"} {
		if r := e25.Find(kase, "bool"); r == nil || r.Value != 1 {
			t.Errorf("BENCH_E25.json %s row missing or false: %+v", kase, r)
		}
	}
}

// TestUnknownExperiment checks that a typo in -exp fails loudly instead
// of silently selecting nothing.
func TestUnknownExperiment(t *testing.T) {
	resetBench(t)
	*expFlag = "E10,E99"
	out, err := captureStdoutErr(run)
	if err == nil {
		t.Fatalf("expected an unknown-experiment error, got success:\n%s", out)
	}
	if !strings.Contains(err.Error(), `unknown experiment "E99"`) {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestFlagRanges checks that an -ops or -watch -tick value no run can
// use fails with a flag error before any family prints.
func TestFlagRanges(t *testing.T) {
	for _, tc := range []struct {
		name, flag string
		set        func()
	}{
		{"ops=0", "-ops", func() { *opsFlag = 0 }},
		{"ops=-5", "-ops", func() { *opsFlag = -5 }},
		{"watch-tick=0", "-tick", func() { *watchFlag, *tickFlag = true, 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resetBench(t)
			*expFlag = "E10"
			tc.set()
			out, err := captureStdoutErr(run)
			if err == nil || !strings.Contains(err.Error(), "bad "+tc.flag+":") {
				t.Fatalf("err = %v, want a %s flag error", err, tc.flag)
			}
			if out != "" {
				t.Fatalf("ran before rejecting %s:\n%s", tc.flag, out)
			}
		})
	}
}

// TestCheckMissingBaseline checks that -check on a family with no
// committed BENCH file is an error, not a silent skip.
func TestCheckMissingBaseline(t *testing.T) {
	t.Chdir(t.TempDir())
	resetBench(t)
	*expFlag = "E10"
	*checkFlag = true
	out, err := captureStdoutErr(run)
	if err == nil {
		t.Fatalf("expected a missing-baseline error, got success:\n%s", out)
	}
	if !strings.Contains(err.Error(), "no committed baseline") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestRecordSmoke runs a family under -record and checks that the flight
// trace is written, parses as Chrome trace JSON and holds op events.
func TestRecordSmoke(t *testing.T) {
	t.Chdir(t.TempDir())
	resetBench(t)
	*expFlag = "E20" // drives the shard layer, where op recording lives
	*recordFlag = "trace.json"
	out := captureStdout(t, run)
	if !strings.Contains(out, "wrote flight recording") {
		t.Errorf("output missing the recording confirmation:\n%s", out)
	}
	buf, err := os.ReadFile("trace.json")
	if err != nil {
		t.Fatalf("missing trace.json: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("trace.json does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace.json has no events")
	}
	begins := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "B" {
			begins++
		}
	}
	if begins == 0 {
		t.Error("trace.json has no B (invoke) events; the op sites never recorded")
	}
}

// TestWatchSmoke drives the live-metrics view for a few ticks.
func TestWatchSmoke(t *testing.T) {
	resetBench(t)
	*watchFlag = true
	*tickFlag = 50 * time.Millisecond
	*watchForFlag = 250 * time.Millisecond
	out := captureStdout(t, run)
	for _, want := range []string{"hibench -watch", "counter", "hash-insert", "final cumulative"} {
		if !strings.Contains(out, want) {
			t.Errorf("watch output missing %q:\n%s", want, out)
		}
	}
}

// TestCheckSmoke runs a family against a committed baseline scaled far
// above the fresh numbers (must pass), then far below (must fail). Two
// honest tiny runs can legitimately differ by orders of magnitude in
// scheduler noise, so the baselines are synthesized from one real run
// rather than compared against a rerun.
func TestCheckSmoke(t *testing.T) {
	t.Chdir(t.TempDir())
	resetBench(t)
	*expFlag = "E10"
	*jsonFlag = true
	captureStdout(t, run)

	scaleBaseline := func(factor float64) {
		t.Helper()
		committed, err := benchfmt.ReadFile("BENCH_E10.json")
		if err != nil {
			t.Fatal(err)
		}
		for i := range committed.Results {
			if committed.Results[i].Metric == "ns/op" {
				committed.Results[i].Value *= factor
			}
		}
		buf, _ := json.Marshal(committed)
		if err := os.WriteFile("BENCH_E10.json", buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	*jsonFlag = false
	*checkFlag = true
	scaleBaseline(1000) // committed far slower: fresh run must pass
	rec = benchfmt.NewRecorder()
	out := captureStdout(t, run)
	if !strings.Contains(out, "E10 vs committed") {
		t.Errorf("check output missing the E10 delta table:\n%s", out)
	}

	scaleBaseline(1e-6) // committed far faster: fresh run must regress
	rec = benchfmt.NewRecorder()
	out, err := captureStdoutErr(run)
	if err == nil {
		t.Fatalf("expected a regression failure, got success:\n%s", out)
	}
	if !strings.Contains(err.Error(), "regressed") {
		t.Errorf("unexpected error: %v", err)
	}
	if !strings.Contains(out, "FAIL") {
		t.Errorf("regressed rows not marked FAIL:\n%s", out)
	}
}
