package experiment

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hiconc/internal/conc"
	"hiconc/internal/core"
	"hiconc/internal/hihash"
	"hiconc/internal/obj"
	"hiconc/internal/spec"
	"hiconc/internal/workload"
)

// The measurement helpers the hibench families share.

// timePerKey runs one per-key measurement of c.Ops operations on n
// goroutines and records its ns/op row.
func (c *Config) timePerKey(exp, kase string, a conc.Applier, n int, mixes [][]core.Op) time.Duration {
	d := runPerKey(a, n, c.Ops/n, mixes)
	c.Rec.RecordPerOp(exp, kase, d, c.Ops)
	return d
}

// measurePerKey is timePerKey as a formatted ns/op cell.
func (c *Config) measurePerKey(exp, kase string, a conc.Applier, n int, mixes [][]core.Op) string {
	return perOp(c.timePerKey(exp, kase, a, n, mixes), c.Ops)
}

// perKeyMixes builds one seeded per-key mix per goroutine.
func perKeyMixes(n int, mk func(g *workload.Gen) []core.Op) [][]core.Op {
	mixes := make([][]core.Op, n)
	for pid := range mixes {
		mixes[pid] = mk(workload.NewGen(int64(pid)))
	}
	return mixes
}

// zipfSet and zipfMap build one seeded 8192-operation Zipf mix per
// goroutine: set keys 1..domain or map keys 1..keys, skew s, and the
// given fraction of lookups (reads).
func zipfSet(n, domain int, s, reads float64) [][]core.Op {
	return perKeyMixes(n, func(g *workload.Gen) []core.Op { return g.SetZipf(8192, domain, s, reads) })
}

func zipfMap(n, keys int, s, reads float64) [][]core.Op {
	return perKeyMixes(n, func(g *workload.Gen) []core.Op { return g.MapZipf(8192, keys, s, reads) })
}

// runPerKey drives applier a with n goroutines replaying per-key mixes.
func runPerKey(a conc.Applier, n, opsPer int, mixes [][]core.Op) time.Duration {
	return timeIt(func() {
		var wg sync.WaitGroup
		for pid := 0; pid < n; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				ops := mixes[pid]
				for i := 0; i < opsPer; i++ {
					a.Apply(pid, ops[i%len(ops)])
				}
			}(pid)
		}
		wg.Wait()
	})
}

// objSet drives the API-layer hash set, where the invoke/return
// recording sites live, as a conc.Applier.
type objSet struct{ *obj.HashSet }

func (objSet) Name() string { return "obj.HashSet" }

func (s objSet) Apply(_ int, op core.Op) int {
	switch op.Name {
	case spec.OpInsert:
		s.Insert(op.Arg)
	case spec.OpRemove:
		s.Remove(op.Arg)
	default:
		if s.Contains(op.Arg) {
			return 1
		}
	}
	return 0
}

// fullCounter wraps an applier and counts RspFull insert responses — the
// E22 acceptance condition is that the displacing table produces zero.
type fullCounter struct {
	conc.Applier
	fulls int64
}

func (f *fullCounter) Apply(pid int, op core.Op) int {
	rsp := f.Applier.Apply(pid, op)
	if op.Name == spec.OpInsert && rsp == hihash.RspFull {
		atomic.AddInt64(&f.fulls, 1)
	}
	return rsp
}

// preload inserts keys 1..count into a via pid 0 and returns a.
func preload[A conc.Applier](a A, count int) A {
	for k := 1; k <= count; k++ {
		a.Apply(0, core.Op{Name: spec.OpInsert, Arg: k})
	}
	return a
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func perOp(d time.Duration, n int) string {
	return fmt.Sprintf("%.1f ns", float64(d.Nanoseconds())/float64(n))
}

func indent(s, prefix string) string {
	var b bytes.Buffer
	for _, line := range bytes.Split([]byte(s), []byte("\n")) {
		if len(line) > 0 {
			b.WriteString(prefix)
			b.Write(line)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// The observer-cost leg E24 (metrics) and E25 (flight recorder) share.

// abRun is one workload of an observer A/B: run times it once.
type abRun struct {
	name string
	run  func() time.Duration
}

// siteCalls is how many disabled observer-site calls the loop passed to
// observerAB makes, inline, so the price carries no call overhead.
const siteCalls = 5_000_000

// observerAB prices one disabled site of an observer by timing loop,
// then times each workload with the observer off and again between on
// and off, and prints and records the A/B. It returns the computed
// disabled-path overhead of the first workload: sites disabled calls
// per operation over its per-op CPU time, one wall nanosecond being par
// CPU nanoseconds when its n goroutines share GOMAXPROCS CPUs. That
// bound, not the measured A/B difference, is what overheadGate checks:
// two noisy wall-clock runs differ by more than the budget, while the
// computed bound is a stable worst case.
func (c *Config) observerAB(exp, onName string, sites, n int, loop, on, off func(), runs ...abRun) float64 {
	siteNs := float64(timeIt(loop).Nanoseconds()) / siteCalls
	fmt.Printf("\n    disabled site (atomic load + branch): %.2f ns/call\n", siteNs)
	c.Rec.Record(exp, "site/disabled", "ns/call", siteNs)

	tOff := make([]time.Duration, len(runs))
	tOn := make([]time.Duration, len(runs))
	for i, r := range runs {
		tOff[i] = r.run()
	}
	on()
	for i, r := range runs {
		tOn[i] = r.run()
	}
	off()

	par := min(runtime.GOMAXPROCS(0), n)
	offNs := float64(tOff[0].Nanoseconds()) / float64(c.Ops)
	computed := 100 * float64(sites) * siteNs / (float64(par) * offNs)
	fmt.Printf("\n    disabled vs %s (ns/op; measured delta is wall-clock noise,\n", onName)
	fmt.Println("    the computed bound is what the gate checks):")
	fmt.Printf("%12s %12s %12s %12s %12s\n", "workload", "disabled", onName, "measured", "computed")
	for i, r := range runs {
		measured := 100 * float64(tOn[i]-tOff[i]) / float64(tOff[i])
		cell := "-"
		if i == 0 {
			cell = fmt.Sprintf("%.2f%%", computed)
		}
		fmt.Printf("%12s %12s %12s %11.1f%% %12s\n", r.name, perOp(tOff[i], c.Ops), perOp(tOn[i], c.Ops), measured, cell)
		c.Rec.RecordPerOp(exp, r.name+"/disabled", tOff[i], c.Ops)
		c.Rec.RecordPerOp(exp, r.name+"/"+onName, tOn[i], c.Ops)
		c.Rec.Record(exp, r.name+"/measured-overhead", "percent", measured)
	}
	c.Rec.Record(exp, runs[0].name+"/computed-overhead", "percent", computed)
	return computed
}

// overheadGate checks a computed disabled-path overhead against
// -maxoverhead. A race build prints the figure but does not gate it:
// the race detector instruments the very atomic load a disabled site
// costs, so under it the figure prices the detector, not the site.
func (c *Config) overheadGate(computed float64) error {
	switch {
	case raceBuild:
		fmt.Printf("    gate: computed disabled-path overhead %.2f%% not gated under the race detector\n", computed)
	case computed > c.MaxOverhead:
		return fmt.Errorf("computed disabled-path overhead %.2f%% exceeds -maxoverhead %.2f%%", computed, c.MaxOverhead)
	default:
		fmt.Printf("    gate: computed disabled-path overhead %.2f%% <= %.2f%% budget\n", computed, c.MaxOverhead)
	}
	return nil
}

// dumpBoundary is the HI-boundary check of an observer: the same
// operation sequence on a displacing table (inserts, removes, a grow),
// once plain and once between on and off, must leave bit-identical raw
// dumps — an observer sees the execution, never the representation.
func (c *Config) dumpBoundary(exp, what string, on, off func()) error {
	build := func() []byte {
		s := hihash.NewDisplaceSet(1024, 8)
		for k := 1; k <= 512; k++ {
			s.Insert(k)
		}
		for k := 3; k <= 512; k += 3 {
			s.Remove(k)
		}
		s.Grow()
		return s.RawDump()
	}
	plain := build()
	on()
	observed := build()
	off()
	identical := bytes.Equal(plain, observed)
	fmt.Printf("    HI boundary: raw dumps with %s enabled vs disabled identical: %v\n", what, identical)
	c.Rec.Record(exp, "hi/rawdump-identical", "bool", b2f(identical))
	if !identical {
		return fmt.Errorf("%s leaked into the representation (raw dumps differ)", what)
	}
	return nil
}
