package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hiconc/internal/hihash"
	"hiconc/internal/histats"
)

// class splits the calls by kind and by the model's expected answer.
type class uint8

const (
	cLookupMiss class = iota
	cLookupHit
	cInsertNew
	cInsertDup
	cRemoveAbsent
	cRemovePresent
	nClasses
)

func classOf(k kind, had bool) class {
	c := class(k) * 2
	if had {
		c++
	}
	return c
}

// worker is one closed-loop client: it issues its next call when the
// previous one returns, and checks each answer against its model.
type worker struct {
	id int
	// model[key] says whether key is in the set, as this worker's own
	// calls have left it (it owns every key it calls).
	model   []bool
	pos     int // next index into a steady stream
	ops     uint64
	count   [nClasses]uint64 // calls issued, by class
	wrong   uint64           // answers the model did not predict
	rejects uint64           // inserts the bounded table refused
	lat     [nClasses]latHist
	spans   *spanLog // nil unless the phase is traced
	layer   uint8    // span-name base of the traced layer
}

func newWorkers(domain int) []*worker {
	ws := make([]*worker, workers)
	for i := range ws {
		ws[i] = &worker{id: i, model: make([]bool, domain+1)}
	}
	return ws
}

// do issues one call and checks its answer. Timed calls are bracketed
// by clock reads and, in a traced phase, logged as a span.
func (w *worker) do(t target, o op) {
	key, k := o.key(), o.kind()
	had := w.model[key]
	var t0 int64
	if o.timed() {
		t0 = now()
	}
	switch k {
	case kLookup:
		if t.contains(w.id, key) != had {
			w.wrong++
		}
	case kInsert:
		if t.insert(w.id, key) == 0 {
			w.model[key] = true
		} else {
			w.rejects++
		}
	default:
		t.remove(w.id, key)
		w.model[key] = false
	}
	c := classOf(k, had)
	w.count[c]++
	if o.timed() {
		t1 := now()
		w.lat[c].add(t1 - t0)
		if w.spans != nil {
			w.spans.add(w.layer+uint8(k), uint8(w.id), t0, t1)
		}
	}
	w.ops++
}

// stopEvery is how many calls a steady worker issues between looks at
// the stop flag.
const stopEvery = 64

// runFor runs the steady closed loop on t for d, each worker continuing
// its stream where it left off, and returns the measured wall time.
func runFor(t target, ws []*worker, st *streams, d time.Duration) time.Duration {
	var stop atomic.Bool
	return parallel(ws, func(w *worker) {
		s := st.ops[w.id]
		for !stop.Load() {
			for i := 0; i < stopEvery; i++ {
				w.do(t, s[w.pos])
				if w.pos++; w.pos == len(s) {
					w.pos = 0
				}
			}
		}
	}, func() {
		time.Sleep(d)
		stop.Store(true)
	})
}

// runCycle runs one grow-drain cycle on t: the workers issue their fill
// streams, then, once both are done, their drain streams. It returns the
// wall time of the two phases.
func runCycle(t target, ws []*worker, c *cycle) time.Duration {
	var wall time.Duration
	for _, phase := range c {
		wall += parallel(ws, func(w *worker) {
			for _, o := range phase[w.id] {
				w.do(t, o)
			}
		}, func() {})
	}
	return wall
}

// parallel starts one goroutine per worker behind a common gate, runs
// main alongside them, and returns the wall time from the gate opening
// until every worker has returned.
func parallel(ws []*worker, body func(*worker), main func()) time.Duration {
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			body(w)
		}()
	}
	t0 := time.Now()
	close(gate)
	main()
	wg.Wait()
	return time.Since(t0)
}

// prepare builds layer l's set for the workload and preloads it: the
// set-up step. Hash tables are then settled (see settle).
func prepare(wl *workload, l layer, st *streams, ws []*worker) target {
	t := l.build(wl)
	for _, w := range ws {
		clear(w.model)
	}
	live := 0
	for _, k := range st.preload {
		w := ws[owner(k)]
		if t.insert(w.id, k) == 0 {
			w.model[k] = true
			live++
		}
	}
	if tb, ok := t.(table); ok && !wl.cycle {
		settle(tb, live)
	}
	return t
}

// settle fixes a preloaded table's geometry before the measured phase.
// Growth is triggered by probe-run lengths, so when it fires in a
// concurrent run depends on timing, and a remove's cost scales with the
// group count. settle doubles the table until it is at most an eighth
// full: at a quarter full, churn still grew mid-run in 1 of 15 runs and
// halved its throughput. For churn an eighth is the growth ceiling
// (four slots per domain key), where no grow can fire. hihash.groups_end
// in the traced run shows any growth that still happens. (The bounded
// table's grow is a no-op, hence the stop when a grow changes nothing.)
func settle(t table, live int) {
	for g := t.numGroups(); hihash.SlotsPerGroup*g < 8*live; {
		t.grow()
		if g == t.numGroups() {
			return
		}
		g = t.numGroups()
	}
}

// phaseResult is what one measured closed-loop phase produced.
type phaseResult struct {
	ops, wrong, rejects  uint64
	checks, failedChecks uint64
	count                [nClasses]uint64
	wall                 time.Duration // measured time, checks excluded
	reps                 []float64     // throughput of each repetition (ops/s)
	cycles               int
	lat                  [nClasses]latHist    // latencies of the whole phase
	repLat               []*[nClasses]latHist // latencies of each repetition
	mallocs              uint64
	groups               int // hash tables: group count at the end
	live                 int // keys in the set at the end
	bytesPerKey          float64
	stats                *histats.Snapshot // traced phases: counter delta
}

// calls returns how many calls of the given classes were issued.
func (r *phaseResult) calls(cs ...class) uint64 {
	var n uint64
	for _, c := range cs {
		n += r.count[c]
	}
	return n
}

func (r *phaseResult) updates() uint64 {
	return r.calls(cInsertNew, cInsertDup, cRemoveAbsent, cRemovePresent)
}

func (r *phaseResult) nsPerOp() float64 {
	return float64(workers) * float64(r.wall.Nanoseconds()) / float64(r.ops)
}

func (r *phaseResult) failed() uint64 { return r.wrong + r.failedChecks }

// measure runs the closed loop on the workload for reps repetitions of d
// each (steady workloads on t, which prepare built; grow-drain on a fresh
// table per cycle) and checks the final state.
func measure(wl *workload, l layer, st *streams, ws []*worker, t target, reps int, d time.Duration) *phaseResult {
	p := newPhase(wl, l, st, ws, t)
	for i := 0; i < reps; i++ {
		p.rep(d)
	}
	return p.finish()
}

// phase is one set under measurement, with its workers and what its
// repetitions have produced so far. Two phases can take turns, as the
// end-to-end run's set and its reference do.
type phase struct {
	wl         *workload
	l          layer
	st         *streams
	ws         []*worker
	t          target
	r          *phaseResult
	ops0       uint64
	cycleBytes float64
}

func newPhase(wl *workload, l layer, st *streams, ws []*worker, t target) *phase {
	return &phase{wl: wl, l: l, st: st, ws: ws, t: t, r: &phaseResult{}, ops0: totalOps(ws)}
}

// rep runs one repetition of d.
func (p *phase) rep(d time.Duration) {
	r, ws := p.r, p.ws
	var ms0, ms1 runtime.MemStats
	// timed runs one closed-loop stretch and counts its heap allocations
	// (table construction and checks between stretches are excluded).
	timed := func(run func() time.Duration) time.Duration {
		runtime.ReadMemStats(&ms0)
		wall := run()
		runtime.ReadMemStats(&ms1)
		r.mallocs += ms1.Mallocs - ms0.Mallocs
		return wall
	}
	runtime.GC()
	before := totalOps(ws)
	var wall time.Duration
	if p.wl.cycle {
		for start := time.Now(); time.Since(start) < d; r.cycles++ {
			p.t = p.l.build(p.wl)
			for _, w := range ws {
				clear(w.model)
			}
			c := p.st.cycle(r.cycles)
			wall += timed(func() time.Duration { return runCycle(p.t, ws, c) })
			r.check(p.t, ws)
			if sz, ok := p.t.(sized); ok {
				p.cycleBytes += float64(sz.bytes()) / float64(r.live)
			}
		}
	} else {
		wall = timed(func() time.Duration { return runFor(p.t, ws, p.st, d) })
	}
	r.wall += wall
	r.reps = append(r.reps, float64(totalOps(ws)-before)/wall.Seconds())
	rl := new([nClasses]latHist)
	for _, w := range ws {
		for c := range w.lat {
			rl[c].merge(&w.lat[c])
			r.lat[c].merge(&w.lat[c])
		}
		w.lat = [nClasses]latHist{}
	}
	r.repLat = append(r.repLat, rl)
}

// finish checks the final state and totals the workers' counts.
func (p *phase) finish() *phaseResult {
	r, t := p.r, p.t
	r.ops = totalOps(p.ws) - p.ops0
	if !p.wl.cycle {
		r.check(t, p.ws)
	}
	for _, w := range p.ws {
		r.wrong += w.wrong
		r.rejects += w.rejects
		for c := range w.count {
			r.count[c] += w.count[c]
		}
	}
	if tb, ok := t.(table); ok {
		r.groups = tb.numGroups()
	}
	if sz, ok := t.(sized); ok {
		r.bytesPerKey = float64(sz.bytes()) / float64(r.live)
		if p.wl.cycle {
			// A cycle's end geometry depends on when growth fired, so
			// grow-drain reports the mean over its cycles.
			r.bytesPerKey = p.cycleBytes / float64(r.cycles)
		}
	}
	return r
}

// repQuantile returns the p-quantile of the given classes' latencies in
// repetition i; ok is false when fewer than minBeyond samples lie beyond it.
func (r *phaseResult) repQuantile(i int, p float64, cs ...class) (float64, bool) {
	return mergeClasses(r.repLat[i], cs).quantile(p)
}

// quantileOf is repQuantile over the whole phase.
func (r *phaseResult) quantileOf(p float64, cs ...class) (float64, bool) {
	return mergeClasses(&r.lat, cs).quantile(p)
}

func mergeClasses(l *[nClasses]latHist, cs []class) *latHist {
	var h latHist
	for _, c := range cs {
		h.merge(&l[c])
	}
	return &h
}

// ratios returns xs[i] / ys[i] for each i.
func ratios(xs, ys []float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = xs[i] / ys[i]
	}
	return out
}

func totalOps(ws []*worker) uint64 {
	var n uint64
	for _, w := range ws {
		n += w.ops
	}
	return n
}

// check verifies a quiescent set against the workers' models: its
// members must be the union of the models, and its memory the canonical
// layout of that key set for its geometry. Each failed check counts as
// one failure. Targets with no inspectable state are checked through
// their answers only.
func (r *phaseResult) check(t target, ws []*worker) {
	want := modelKeys(ws)
	r.live = len(want)
	c, ok := t.(checked)
	if !ok {
		return
	}
	r.checks += 2
	if !slices.Equal(c.elements(), want) {
		r.failedChecks++
	}
	if !c.canonical(want) {
		r.failedChecks++
	}
}

// modelKeys returns the union of the workers' models, sorted.
func modelKeys(ws []*worker) []int {
	var keys []int
	for k := range ws[0].model {
		for _, w := range ws {
			if w.model[k] {
				keys = append(keys, k)
				break
			}
		}
	}
	return keys
}
