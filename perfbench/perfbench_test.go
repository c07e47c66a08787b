package main

import (
	"encoding/json"
	"errors"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuantileSampleCountRule(t *testing.T) {
	var h latHist
	for i := 0; i < 19; i++ {
		h.add(100)
	}
	if _, ok := h.quantile(0.5); ok {
		t.Fatal("p50 of 19 samples reported; fewer than 10 lie beyond it")
	}
	h.add(100)
	if _, ok := h.quantile(0.5); !ok {
		t.Fatal("p50 of 20 samples withheld")
	}
	for h.n < 999 {
		h.add(100)
	}
	if _, ok := h.quantile(0.99); ok {
		t.Fatal("p99 of 999 samples reported")
	}
	h.add(100)
	if _, ok := h.quantile(0.99); !ok {
		t.Fatal("p99 of 1000 samples withheld")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	var h latHist
	for v := int64(0); v < 1000; v++ {
		h.add(v)
	}
	// Readings of v ns spread uniformly over [v, v+1): the p-quantile of
	// 0..999 is 1000p.
	for _, p := range []float64{0.5, 0.9, 0.99} {
		got, ok := h.quantile(p)
		if !ok || got != 1000*p {
			t.Errorf("quantile(%v) = %v, %v; want %v", p, got, ok, 1000*p)
		}
	}
	// Above the linear range a reading lands in a bucket that holds it.
	for _, v := range []int64{4095, 4096, 5000, 123456, 1 << 30, 1<<36 - 1} {
		lo, hi := bucketBounds(bucketOf(v))
		if float64(v) < lo || float64(v) >= hi || (hi-lo)/lo > 0.01 {
			t.Errorf("%d ns in bucket [%v, %v)", v, lo, hi)
		}
	}
}

func TestStreamsOwnedAndSeeded(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		calls := func(seed int64) [workers][]op {
			st := generate(wl, seed)
			if wl.cycle {
				c := st.cycle(3)
				for w := range c[0] {
					c[0][w] = append(c[0][w], c[1][w]...)
				}
				return c[0]
			}
			return st.ops
		}
		a, b, c := calls(7), calls(7), calls(8)
		for w, s := range a {
			for _, o := range s {
				if owner(o.key()) != w || o.key() < 1 || o.key() > wl.domain {
					t.Fatalf("%s: worker %d's stream calls key %d", wl.name, w, o.key())
				}
			}
		}
		if !slices.Equal(a[0], b[0]) || !slices.Equal(a[1], b[1]) ||
			!slices.Equal(generate(wl, 7).preload, generate(wl, 7).preload) {
			t.Errorf("%s: the same seed gave different inputs", wl.name)
		}
		if slices.Equal(a[0], c[0]) {
			t.Errorf("%s: different seeds gave the same stream", wl.name)
		}
	}
}

// short is the measured time of a test run: enough for a few hundred
// calls per class, far from a benchmark.
const short = 60 * time.Millisecond

func TestModelsPredictEveryAnswer(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		st := generate(wl, 1)
		ws := newWorkers(wl.domain)
		r := measure(wl, layerObj, st, ws, prepare(wl, layerObj, st, ws), 2, short)
		if r.ops == 0 || r.checks == 0 || r.failed() != 0 {
			t.Errorf("%s: %d calls, %d checks, %d wrong, %d failed checks",
				wl.name, r.ops, r.checks, r.wrong, r.failedChecks)
		}
	}
}

func TestCheckComparesWithModels(t *testing.T) {
	for _, name := range []string{"read-hot", "universal"} {
		wl, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		st := generate(wl, 1)
		ws := newWorkers(wl.domain)
		tg := prepare(wl, layerObj, st, ws)
		var r phaseResult
		r.check(tg, ws)
		if r.checks != 2 || r.failedChecks != 0 {
			t.Fatalf("%s: fresh set-up failed %d of %d checks", name, r.failedChecks, r.checks)
		}
		// A model that expects a key the set lacks fails both the
		// membership and the canonical-layout check.
		k := 1
		for ws[owner(k)].model[k] {
			k++
		}
		ws[owner(k)].model[k] = true
		r = phaseResult{}
		r.check(tg, ws)
		if r.failedChecks != 2 {
			t.Fatalf("%s: missing key %d failed %d of %d checks, want 2", name, k, r.failedChecks, r.checks)
		}
	}
}

// dropOne is a test double that loses one insert: the first insert of an
// absent key once skip inserts have passed. Both workers call it, so skip
// is atomic.
type dropOne struct {
	checked
	skip atomic.Int64
}

func (d *dropOne) insert(w, key int) int {
	if d.skip.Add(-1) < 0 && !d.contains(w, key) {
		d.skip.Store(1 << 62)
		return 0
	}
	return d.checked.insert(w, key)
}

func TestDroppedInsertFailsRun(t *testing.T) {
	// read-hot calls a key again almost only to look it up, so the loss
	// is seen by a lookup or, failing that, by the final check.
	wl, err := findWorkload("read-hot")
	if err != nil {
		t.Fatal(err)
	}
	st := generate(wl, 1)
	drop := layer{"drop", func(wl *workload) target {
		d := &dropOne{checked: layerObj.build(wl).(checked)}
		d.skip.Store(int64(len(st.preload)))
		return d
	}}
	m, r, err := endToEnd(wl, drop, st, short)
	if err != nil && !errors.Is(err, errFewSamples) {
		t.Fatal(err)
	}
	if rep := newReport(m, r); rep.Correct || rep.Failed == 0 {
		t.Errorf("a dropped insert passed: %+v", rep)
	}
}

// TestMetricsMatchBenchmarkJSON runs each workload briefly, end to end
// and traced, and checks that the metric names are exactly the ones
// BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, m metrics, want []struct{ Name, Unit string }) {
		var got, exp []string
		for _, x := range m {
			got = append(got, x.name+" "+x.unit)
		}
		for _, x := range want {
			exp = append(exp, x.Name+" "+x.Unit)
		}
		slices.Sort(got)
		slices.Sort(exp)
		if !slices.Equal(got, exp) {
			t.Errorf("%s metrics\n got %v\nwant %v", what, got, exp)
		}
	}
	for _, w := range spec.Workloads {
		wl, err := findWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		st := generate(wl, 1)
		m, r, err := endToEnd(wl, layerObj, st, 5*short)
		if err != nil && !errors.Is(err, errFewSamples) {
			t.Fatal(err)
		}
		same(wl.name+" end-to-end", m, spec.EndToEnd)
		if r.failed() != 0 {
			t.Errorf("%s: %d failures", wl.name, r.failed())
		}
		m, rs, err := traceRun(wl, st, 7*short, t.TempDir(), newFingerprint(wl.name, 1))
		if err != nil {
			t.Fatal(err)
		}
		same(wl.name+" traced", m, spec.PerLayer)
		if rep := newReport(m, rs...); !rep.Correct {
			t.Errorf("%s traced: %d failures", wl.name, rep.Failed)
		}
	}
}
