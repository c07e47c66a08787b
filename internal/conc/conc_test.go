package conc_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"hiconc/internal/conc"
	"hiconc/internal/core"
	"hiconc/internal/spec"
)

var (
	inc = core.Op{Name: spec.OpInc}
	dec = core.Op{Name: spec.OpDec}
	rd  = core.Op{Name: spec.OpRead}
)

func TestCellBasics(t *testing.T) {
	c := conc.NewCell(10)
	if c.Load() != 10 {
		t.Fatal("Load")
	}
	if c.SC(0, 99) {
		t.Fatal("SC without LL must fail")
	}
	if got := c.LL(0); got != 10 {
		t.Fatalf("LL = %v", got)
	}
	if !c.VL(0) {
		t.Fatal("VL after LL")
	}
	if !c.SC(0, 11) {
		t.Fatal("SC after LL must succeed")
	}
	if c.VL(0) {
		t.Fatal("context must reset after SC")
	}
	c.LL(1)
	c.RL(1)
	if c.SC(1, 12) {
		t.Fatal("SC after RL must fail")
	}
	c.LL(2)
	c.Store(13)
	if c.SC(2, 14) {
		t.Fatal("SC after Store must fail")
	}
	if v, ctx := c.Snapshot(); v != 13 || ctx != 0 {
		t.Fatalf("snapshot = (%v, %b)", v, ctx)
	}
}

func TestCellConcurrentSC(t *testing.T) {
	// n goroutines perform LL;SC increments; every increment must
	// eventually succeed exactly once (retry on failure), so the final
	// value is n*m.
	const n, m = 8, 200
	c := conc.NewCell(0)
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < m; i++ {
				for {
					v := c.LL(pid)
					if c.SC(pid, v+1) {
						break
					}
				}
			}
		}(pid)
	}
	wg.Wait()
	if got := c.Load(); got != n*m {
		t.Fatalf("final value %d, want %d", got, n*m)
	}
	if _, ctx := c.Snapshot(); ctx != 0 {
		t.Fatalf("context not empty at quiescence: %b", ctx)
	}
}

// TestCellConcurrentInPlaceContext mixes the operations that write the
// context in place (LL sets the caller's bit, RL clears it) with SCs and
// VL probes from 8 goroutines. Only the owner writes its bit, so a
// process's own RL leaves it unlinked whatever the others do, and once VL
// reports the link gone no later SC of the owner can succeed. Every
// successful SC adds one, and every process's last step is an SC or an
// RL, so no link survives to quiescence.
func TestCellConcurrentInPlaceContext(t *testing.T) {
	const n, m = 8, 2000
	c := conc.NewCell(0)
	var wins atomic.Int64
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pid)))
			for i := 0; i < m; i++ {
				v := c.LL(pid)
				if rng.Intn(2) == 0 { // an LL;RL pair
					c.RL(pid)
					if c.VL(pid) {
						t.Errorf("p%d: VL true right after its own RL", pid)
						return
					}
					continue
				}
				linked := c.VL(pid) // probe between LL and SC
				ok := c.SC(pid, v+1)
				if ok {
					wins.Add(1)
				}
				if ok && !linked {
					t.Errorf("p%d: SC succeeded after VL reported the link gone", pid)
					return
				}
				if c.VL(pid) {
					t.Errorf("p%d: VL true right after its own SC", pid)
					return
				}
			}
		}(pid)
	}
	wg.Wait()
	v, ctx := c.Snapshot()
	if int64(v) != wins.Load() {
		t.Fatalf("final value %d, want %d successful SCs", v, wins.Load())
	}
	if ctx != 0 {
		t.Fatalf("context not empty at quiescence: %b", ctx)
	}
}

func TestCellLLWithAbort(t *testing.T) {
	c := conc.NewCell(1)
	calls := 0
	// An abort that fires on the first poll: LL gives up only after an
	// attempt whose pointer re-read fails; with no contention the first
	// attempt confirms its node before the abort is consulted.
	v, ok := c.LLWithAbort(0, func() bool { calls++; return true })
	if !ok || v != 1 {
		t.Fatalf("uncontended LL aborted (ok=%v v=%v calls=%d)", ok, v, calls)
	}
}

// applyCounterConcurrently drives an Applier with n goroutines doing incs
// and decs and returns the expected and actual final values.
func applyCounterConcurrently(t *testing.T, a conc.Applier, n, opsPer int, seed int64) (want, got int) {
	t.Helper()
	deltas := make([]int, n)
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(pid)))
			d := 0
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(3) {
				case 0:
					a.Apply(pid, inc)
					d++
				case 1:
					a.Apply(pid, dec)
					d--
				case 2:
					a.Apply(pid, rd)
				}
			}
			deltas[pid] = d
		}(pid)
	}
	wg.Wait()
	for _, d := range deltas {
		want += d
	}
	return want, a.Apply(0, rd)
}

func TestUniversalCounter(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		u := conc.NewUniversal(conc.CounterObj{}, n)
		want, got := applyCounterConcurrently(t, u, n, 500, 42)
		if got != want {
			t.Errorf("n=%d: counter = %d, want %d", n, got, want)
		}
	}
}

func TestUniversalCounterFetchSemantics(t *testing.T) {
	// inc returns the previous value: across n goroutines doing only incs,
	// the returned values must be a permutation of 0..n*m-1.
	const n, m = 4, 100
	u := conc.NewUniversal(conc.CounterObj{}, n)
	results := make([][]int, n)
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < m; i++ {
				results[pid] = append(results[pid], u.Apply(pid, inc))
			}
		}(pid)
	}
	wg.Wait()
	var all []int
	for _, r := range results {
		all = append(all, r...)
	}
	sort.Ints(all)
	for i, v := range all {
		if v != i {
			t.Fatalf("fetch-and-inc results not a permutation: position %d holds %d", i, v)
		}
	}
}

func TestUniversalHIAtQuiescence(t *testing.T) {
	// After any concurrent run, the memory representation must equal the
	// canonical representation of the final abstract state — regardless of
	// schedule, operation mix, or which processes did the work.
	const n = 4
	for seed := int64(0); seed < 20; seed++ {
		u := conc.NewUniversal(conc.CounterObj{}, n)
		want, got := applyCounterConcurrently(t, u, n, 200, seed)
		if got != want {
			t.Fatalf("seed %d: counter = %d, want %d", seed, got, want)
		}
		canon := conc.CanonicalSnapshot(conc.CounterObj{}, n, want)
		if snap := u.Snapshot(); snap != canon {
			t.Fatalf("seed %d: memory not canonical at quiescence:\n got %s\nwant %s", seed, snap, canon)
		}
	}
}

func TestLeakyUniversalLeaks(t *testing.T) {
	// The ablation: without clearing, announce cells keep responses, so
	// the memory depends on the history, not just the state.
	const n = 2
	u := conc.NewLeakyUniversal(conc.CounterObj{}, n)
	u.Apply(0, inc)
	u.Apply(1, inc)
	u.Apply(1, dec)
	// State is 1; the canonical representation has empty announce cells.
	canon := conc.CanonicalSnapshot(conc.CounterObj{}, n, 1)
	if snap := u.Snapshot(); snap == canon {
		t.Fatalf("leaky universal left canonical memory %s; the ablation should leak", snap)
	}
	if got := u.Apply(0, rd); got != 1 {
		t.Fatalf("leaky universal value = %d, want 1", got)
	}
}

func TestUniversalQueueFIFOPerProcess(t *testing.T) {
	// Each producer enqueues an ascending sequence tagged with its id; each
	// consumer's dequeues must preserve every producer's order, and the
	// union of all dequeued values must equal the enqueued multiset.
	const producers, consumers, m = 2, 2, 150
	n := producers + consumers
	u := conc.NewUniversal(conc.QueueObj{}, n)
	var wg sync.WaitGroup
	dequeued := make([][]int, consumers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; i <= m; i++ {
				u.Apply(p, core.Op{Name: spec.OpEnq, Arg: p*1000 + i})
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pid := producers + c
			got := 0
			for got < m*producers/consumers {
				if v := u.Apply(pid, core.Op{Name: spec.OpDeq}); v != 0 {
					dequeued[c] = append(dequeued[c], v)
					got++
				}
			}
		}(c)
	}
	wg.Wait()
	// Per-producer FIFO order within each consumer's stream.
	for c, stream := range dequeued {
		last := map[int]int{}
		for _, v := range stream {
			p := v / 1000
			if v%1000 <= last[p] {
				t.Fatalf("consumer %d saw producer %d out of order: %d after %d", c, p, v%1000, last[p])
			}
			last[p] = v % 1000
		}
	}
	// Multiset equality.
	var all []int
	for _, s := range dequeued {
		all = append(all, s...)
	}
	if len(all) != producers*m {
		t.Fatalf("dequeued %d values, want %d", len(all), producers*m)
	}
	sort.Ints(all)
	idx := 0
	for p := 0; p < producers; p++ {
		for i := 1; i <= m; i++ {
			if all[idx] != p*1000+i {
				t.Fatalf("missing value %d", p*1000+i)
			}
			idx++
		}
	}
}

func TestUniversalQueueHIAtQuiescence(t *testing.T) {
	// Queue states are slices; the snapshot must still be canonical — two
	// different interleaved histories leaving the same queue contents leave
	// the same memory.
	const n = 2
	a := conc.NewUniversal(conc.QueueObj{}, n)
	a.Apply(0, core.Op{Name: spec.OpEnq, Arg: 5})
	a.Apply(1, core.Op{Name: spec.OpEnq, Arg: 6})
	a.Apply(0, core.Op{Name: spec.OpDeq})
	b := conc.NewUniversal(conc.QueueObj{}, n)
	b.Apply(1, core.Op{Name: spec.OpEnq, Arg: 6})
	if a.Snapshot() != b.Snapshot() {
		t.Fatalf("snapshots differ for equal queues:\n a: %s\n b: %s", a.Snapshot(), b.Snapshot())
	}
}

func TestBaselinesAgree(t *testing.T) {
	const n, opsPer = 4, 300
	appliers := []conc.Applier{
		conc.NewUniversal(conc.CounterObj{}, n),
		conc.NewLeakyUniversal(conc.CounterObj{}, n),
		conc.NewMutexObject(conc.CounterObj{}),
		conc.NewNoHelpUniversal(conc.CounterObj{}),
	}
	for _, a := range appliers {
		want, got := applyCounterConcurrently(t, a, n, opsPer, 7)
		if got != want {
			t.Errorf("%s: counter = %d, want %d", a.Name(), got, want)
		}
	}
}

// --- native registers ---

func TestAlg1RegisterSWSR(t *testing.T) {
	testRegister(t, func(k, v0 int) swsr { return alg1Adapter{conc.NewAlg1Register(k, v0)} })
}

func TestAlg2RegisterSWSR(t *testing.T) {
	testRegister(t, func(k, v0 int) swsr { return alg2Adapter{conc.NewAlg2Register(k, v0)} })
}

func TestAlg4RegisterSWSR(t *testing.T) {
	testRegister(t, func(k, v0 int) swsr { return alg4Adapter{conc.NewAlg4Register(k, v0)} })
}

type swsr interface {
	Write(int)
	Read() int
}

type alg1Adapter struct{ r *conc.Alg1Register }

func (a alg1Adapter) Write(v int) { a.r.Write(v) }
func (a alg1Adapter) Read() int   { return a.r.Read() }

type alg2Adapter struct{ r *conc.Alg2Register }

func (a alg2Adapter) Write(v int) { a.r.Write(v) }
func (a alg2Adapter) Read() int   { v, _ := a.r.Read(); return v }

type alg4Adapter struct{ r *conc.Alg4Register }

func (a alg4Adapter) Write(v int) { a.r.Write(v) }
func (a alg4Adapter) Read() int   { return a.r.Read() }

// testRegister checks regularity-style sanity under real concurrency: every
// read returns a value that was written (or the initial value), and once the
// writer is quiescent, reads return the last written value.
func testRegister(t *testing.T, mk func(k, v0 int) swsr) {
	t.Helper()
	const k, v0, writes = 8, 1, 3000
	r := mk(k, v0)
	written := make([]int32, k+1)
	written[v0] = 1
	valid := func(v int) bool { return v >= 1 && v <= k && atomic.LoadInt32(&written[v]) == 1 }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < writes; i++ {
			v := rng.Intn(k) + 1
			atomic.StoreInt32(&written[v], 1) // published before the write's stores
			r.Write(v)
		}
		close(stop)
	}()
	wg.Add(1)
	var badRead int
	go func() { // reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := r.Read(); !valid(v) {
				badRead = v
				return
			}
		}
	}()
	wg.Wait()
	if badRead != 0 {
		t.Fatalf("read returned %d, never written", badRead)
	}
	r.Write(5)
	if got := r.Read(); got != 5 {
		t.Fatalf("quiescent read = %d, want 5", got)
	}
}

func TestAlg2RegisterHIAtQuiescence(t *testing.T) {
	r := conc.NewAlg2Register(6, 1)
	seqs := [][]int{
		{3, 5, 2},
		{2},
		{5, 2},
		{1, 6, 4, 3, 2},
	}
	want := ""
	for i, seq := range seqs {
		r2 := conc.NewAlg2Register(6, 1)
		for _, v := range seq {
			r2.Write(v)
		}
		snap := r2.Snapshot()
		if i == 0 {
			want = snap
			continue
		}
		if snap != want {
			t.Fatalf("sequence %v left %s; want the canonical %s", seq, snap, want)
		}
	}
	_ = r
}

func TestAlg1RegisterNotHI(t *testing.T) {
	a := conc.NewAlg1Register(4, 1)
	a.Write(3)
	a.Write(1)
	b := conc.NewAlg1Register(4, 1)
	b.Write(1)
	if a.Snapshot() == b.Snapshot() {
		t.Fatal("Algorithm 1 left identical memory for different histories; expected the Section 4 leak")
	}
	if x, y := a.Read(), b.Read(); x != y || x != 1 {
		t.Fatalf("both registers should read 1 (got %d, %d)", x, y)
	}
}

func TestAlg4RegisterHIAtQuiescence(t *testing.T) {
	a := conc.NewAlg4Register(5, 2)
	a.Write(4)
	a.Write(2)
	b := conc.NewAlg4Register(5, 2)
	b.Write(2)
	// Histories differ; memory must not.
	if a.Snapshot() != b.Snapshot() {
		t.Fatalf("Algorithm 4 memory differs at quiescence:\n a: %s\n b: %s", a.Snapshot(), b.Snapshot())
	}
}

func TestCanonicalSnapshotShape(t *testing.T) {
	got := conc.CanonicalSnapshot(conc.CounterObj{}, 2, 5)
	want := "head=<5,_>/ctx=0 | ann0=_/ctx=0 | ann1=_/ctx=0"
	if got != want {
		t.Fatalf("canonical snapshot = %q, want %q", got, want)
	}
}

func TestObjectsPure(t *testing.T) {
	// Apply must not mutate its input state (states are shared immutably).
	q := conc.QueueObj{}
	s0 := q.Init()
	s1, _ := q.Apply(s0, core.Op{Name: spec.OpEnq, Arg: 1})
	s2, _ := q.Apply(s1, core.Op{Name: spec.OpEnq, Arg: 2})
	if fmt.Sprint(s1) != "[1]" {
		t.Fatalf("enqueue mutated its input: %v", s1)
	}
	s3, v := q.Apply(s2, core.Op{Name: spec.OpDeq})
	if v != 1 || fmt.Sprint(s3) != "[2]" || fmt.Sprint(s2) != "[1 2]" {
		t.Fatalf("dequeue wrong or mutating: v=%d s3=%v s2=%v", v, s3, s2)
	}
}
