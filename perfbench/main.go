// Command perfbench is the repository's benchmark: closed-loop workloads
// over the history-independent object stack (obj, hihash, shard, conc),
// with every answer checked, end-to-end metrics from an untraced run and
// per-layer metrics from a separate traced run. See README.md.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 50 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any answer or final check was wrong, or the run could not be made.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed on the human-readable line only
}

type metrics []metric

func (m *metrics) add(name string, v float64, unit string) {
	*m = append(*m, metric{name: name, value: v, unit: unit})
}

// addQuantile adds h's p-quantile in ns, with its sample count. A
// quantile without minBeyond samples beyond it reads 0 and is marked.
func (m *metrics) addQuantile(name string, h *latHist, p float64) {
	v, ok := h.quantile(p)
	note := fmt.Sprintf("n=%d", h.n)
	if !ok {
		note += ", too few samples to report"
	}
	*m = append(*m, metric{name: name, value: v, unit: "ns", note: note})
}

func (m metrics) MarshalJSON() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, x := range m {
		out[x.name] = value{x.value, x.unit}
	}
	return json.Marshal(out)
}

type report struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// repDur is the length of one repetition of the end-to-end run, on the
// set or on its reference: long enough for churn, the slowest workload,
// to time over a thousand lookups in each, as a p99 needs.
const repDur = time.Second

func main() {
	name := flag.String("workload", "", "workload: read-hot, churn, grow-drain or universal")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured time")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for the traced run's Chrome trace and histats files")
	flag.Parse()
	// A helping cycle in the table recurses without bound; cap the stack
	// so such a run dies in well under a second instead of growing a
	// goroutine stack to the 1 GB default.
	debug.SetMaxStack(64 << 20)
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, d time.Duration, trace int, outDir string) error {
	wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	if d <= 0 || trace < 0 || trace > 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(workers)
	// A call that never returns (a livelocked helping loop) must fail
	// the run, not hang it.
	limit := d + 100*time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v: a call into the set is not returning\n", name, limit)
		os.Exit(3)
	})
	fp := newFingerprint(name, seed)
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Printf("fingerprint %s\n", fpJSON)
	fmt.Printf("workload %s: %s\n", wl.name, wl.why)
	st := generate(wl, seed)

	var rep report
	if trace == 1 {
		m, rs, err := traceRun(wl, st, d, outDir, fp)
		if err != nil {
			return err
		}
		rep = newReport(m, rs...)
	} else {
		m, r, err := endToEnd(wl, layerObj, st, d)
		if err != nil {
			return err
		}
		rep = newReport(m, r)
		// Printed, not reported: it is meant to reach 0 on the hash
		// workloads, and a reported metric must never read 0.
		fmt.Printf("allocs_per_op %.6g (%d heap allocations in %d calls)\n",
			float64(r.mallocs)/float64(r.ops), r.mallocs, r.ops)
	}
	for _, m := range rep.Metrics {
		fmt.Printf("%-34s %14.6g %-14s %s\n", m.name, m.value, m.unit, m.note)
	}
	fmt.Printf("failed_frac %.6g (%d failed of %d attempted)\n",
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !rep.Correct {
		return fmt.Errorf("%d of %d calls and checks failed", rep.Failed, rep.Attempted)
	}
	return nil
}

// newReport totals the phases' calls, checks and failures.
func newReport(m metrics, rs ...*phaseResult) report {
	rep := report{Metrics: m}
	for _, r := range rs {
		rep.Attempted += r.ops + r.checks
		rep.Failed += r.failed()
	}
	rep.Correct = rep.Failed == 0
	return rep
}

// maxWarm caps the warm-up, which runs for a tenth of the measured time.
// On the reference box a 2-vCPU guest that has been idle runs at about
// half speed for its first second or so of load, set-up included.
const maxWarm = 2 * time.Second

// endToEnd warms up, sets the workload up on layer l, measures that set
// for d in pairs of repetitions with the sync.Map reference, and returns
// the end-to-end metrics. The command runs it on layerObj; tests
// substitute doubles.
func endToEnd(wl *workload, l layer, st *streams, d time.Duration) (metrics, *phaseResult, error) {
	// The warm-up runs the workload on a set of its own. Its calls are not
	// measured, but its answers and final state are checked like the rest.
	ws := newWorkers(wl.domain)
	warm := measure(wl, l, st, ws, prepare(wl, l, st, ws), 1, min(maxWarm, d/10))
	// setUp builds, preloads and settles a set, and returns it with its
	// workers and the time taken.
	setUp := func() (target, []*worker, float64) {
		ws := newWorkers(wl.domain)
		runtime.GC()
		t0 := time.Now()
		t := prepare(wl, l, st, ws)
		if wl.cycle {
			// grow-drain preloads nothing, as each cycle starts empty.
			// Its set-up fills the table with a cycle's keys in
			// ascending order from one goroutine: the same growth, and
			// so the same work, on every run and seed.
			for k := 1; k <= wl.fill; k++ {
				ws[owner(k)].do(t, mkOp(kInsert, k, false))
			}
		}
		s := time.Since(t0).Seconds()
		if wl.cycle {
			warm.check(t, ws)
			warm.wrong += ws[0].wrong + ws[1].wrong
			ws = newWorkers(wl.domain) // the fill's calls are not measured
		}
		return t, ws, s
	}
	t, ws, s := setUp()
	setups := []float64{s}
	// The reference replays the same streams into a sync.Map set, taking
	// turns with the set under test, so that both see the same host. A
	// further set-up follows each pair, so that setup_s, a median over the
	// whole run like the ratios, does not rest on one moment of the host.
	wr := newWorkers(wl.domain)
	hi := newPhase(wl, l, st, ws, t)
	ref := newPhase(wl, layerRef, st, wr, prepare(wl, layerRef, st, wr))
	pairs := max(1, int(d/(2*repDur)))
	for i := 0; i < pairs; i++ {
		hi.rep(d / time.Duration(2*pairs))
		ref.rep(d / time.Duration(2*pairs))
		_, _, s := setUp()
		setups = append(setups, s)
	}
	r, rr := hi.finish(), ref.finish()
	// Each reference call's answer is checked too; they count as checks, so
	// that r.ops stays the set's own calls.
	r.checks += warm.checks + rr.checks + rr.ops
	r.failedChecks += warm.failedChecks + rr.failedChecks
	r.wrong += warm.wrong + rr.wrong

	m := metrics{{name: "throughput_vs_syncmap", value: mean(ratios(r.reps, rr.reps)), unit: "ratio",
		note: fmt.Sprintf("%.6g vs %.6g ops/s; hi %.6g ref %.6g", float64(r.ops)/r.wall.Seconds(),
			float64(rr.ops)/rr.wall.Seconds(), r.reps, rr.reps)}}
	ok := true
	for _, q := range []struct {
		kind    string
		classes []class
	}{
		{"lookup", []class{cLookupMiss, cLookupHit}},
		{"insert", []class{cInsertNew, cInsertDup}},
		{"remove", []class{cRemoveAbsent, cRemovePresent}},
	} {
		for _, p := range []struct {
			name string
			p    float64
		}{{"_p50", 0.50}, {"_p99", 0.99}} {
			var hs, rs, xs []float64
			for i := range r.repLat {
				h, hok := r.repQuantile(i, p.p, q.classes...)
				x, xok := rr.repQuantile(i, p.p, q.classes...)
				if hok && xok {
					hs, rs, xs = append(hs, h), append(rs, x), append(xs, h/x)
				}
			}
			ok = ok && len(xs) > 0 && 2*len(xs) >= pairs
			h, _ := r.quantileOf(p.p, q.classes...)
			x, _ := rr.quantileOf(p.p, q.classes...)
			m = append(m, metric{name: q.kind + p.name + "_vs_syncmap", value: mean(xs), unit: "ratio",
				note: fmt.Sprintf("%.6g vs %.6g ns, n=%d; hi %.6g ref %.6g", h, x, r.calls(q.classes...), hs, rs)})
		}
	}
	m.add("table_bytes_per_key", r.bytesPerKey, "B/key")
	m = append(m, metric{name: "setup_s", value: median(setups), unit: "s",
		note: fmt.Sprintf("median of %.3g", setups)})
	if !ok {
		return m, r, fmt.Errorf("%s: %w", wl.name, errFewSamples)
	}
	return m, r, nil
}

// errFewSamples fails a run too short to report its percentiles. Its
// metrics and results are still returned, for tests that run briefly.
var errFewSamples = fmt.Errorf("a latency percentile has fewer than %d samples beyond it; run longer", minBeyond)

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs; 0 when xs is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
