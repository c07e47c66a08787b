package hihash_test

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"hiconc/internal/hihash"
)

// modelSet is the mutex-guarded reference model the stress tests compare
// against: it applies the same operations under a lock, so at quiescence
// the native tables must hold exactly its key set — and, canonically,
// exactly its layout.
type modelSet struct {
	mu sync.Mutex
	m  map[int]bool
}

func newModelSet() *modelSet { return &modelSet{m: map[int]bool{}} }

func (ms *modelSet) apply(op, key int, table *hihash.Set) {
	// Model and table mutate under one lock so their op sequences agree;
	// the interesting concurrency is across goroutines' lock-free table
	// calls in the non-locked variant below.
	switch op {
	case 0:
		table.Insert(key)
		ms.mu.Lock()
		ms.m[key] = true
		ms.mu.Unlock()
	case 1:
		table.Remove(key)
		ms.mu.Lock()
		delete(ms.m, key)
		ms.mu.Unlock()
	}
}

func (ms *modelSet) elems() []int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	var out []int
	for k := range ms.m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// TestStressDisplaceSetRandomized hammers the displacing table from N
// goroutines with a mixed insert/remove/contains workload on disjoint
// key ranges (so the final set is deterministic per goroutine), plus
// forced concurrent resizes, and checks the final Snapshot against the
// canonical displaced layout of a mutex-guarded model, and that no
// ghost window is left open. Run it with -race: the relocation
// protocol's marks, helping and migration all get exercised.
func TestStressDisplaceSetRandomized(t *testing.T) {
	const n = 8
	perProc := 400
	iters := 3000
	if testing.Short() {
		perProc = 120
		iters = 800
	}
	domain := n * perProc
	s := hihash.NewDisplaceSet(domain, 8) // tiny initial table: growth is forced
	model := newModelSet()
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pid)))
			lo := pid * perProc
			for i := 0; i < iters; i++ {
				key := lo + rng.Intn(perProc) + 1
				switch rng.Intn(4) {
				case 0, 1:
					model.apply(0, key, s)
				case 2:
					model.apply(1, key, s)
				default:
					s.Contains(key)
				}
				if i%1000 == 999 && pid == 0 {
					s.Grow() // force migrations under full churn
				}
			}
		}(pid)
	}
	wg.Wait()
	want := model.elems()
	got := s.Elements()
	if !equalInts(got, want) {
		t.Fatalf("final elements diverge from model:\n got:  %v\n want: %v", got, want)
	}
	for _, k := range want {
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false for a member", k)
		}
	}
	if snap, canon := s.Snapshot(), hihash.CanonicalSetSnapshot(domain, s.NumGroups(), want); snap != canon {
		t.Fatalf("memory not canonical at quiescence (groups=%d):\n got:  %s\n want: %s", s.NumGroups(), snap, canon)
	}
	if n := s.GhostWindows(); n != 0 {
		t.Fatalf("%d ghost windows open at crash-free quiescence, want 0", n)
	}
}

// TestStressDisplaceSetSharedKeys drives fully shared hot keys (no
// disjoint ranges, so inserts and removes of the same key race) and
// checks only the invariants that survive nondeterminism: Snapshot is
// the canonical layout of whatever key set landed, no key is
// duplicated or stranded, and no ghost window is left open.
func TestStressDisplaceSetSharedKeys(t *testing.T) {
	const n, domain = 8, 48
	iters := 4000
	if testing.Short() {
		iters = 1000
	}
	s := hihash.NewDisplaceSet(domain, 2) // two groups: maximal displacement pressure
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + pid)))
			for i := 0; i < iters; i++ {
				k := rng.Intn(domain) + 1
				switch rng.Intn(3) {
				case 0:
					s.Insert(k)
				case 1:
					s.Remove(k)
				default:
					s.Contains(k)
				}
				if i%1500 == 1499 {
					s.Grow()
				}
			}
		}(pid)
	}
	wg.Wait()
	elems := s.Elements()
	if snap, canon := s.Snapshot(), hihash.CanonicalSetSnapshot(domain, s.NumGroups(), elems); snap != canon {
		t.Fatalf("memory not canonical at quiescence (groups=%d):\n got:  %s\n want: %s", s.NumGroups(), snap, canon)
	}
	for _, k := range elems {
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false for a member", k)
		}
	}
	if n := s.GhostWindows(); n != 0 {
		t.Fatalf("%d ghost windows open at crash-free quiescence, want 0", n)
	}
}
