package hihash

// White-box tests of the bounded-retry read path (E26): the helping
// fallback must answer correctly from crafted interference windows and
// leave the layout canonical, and the whole lookup surface must stay
// correct when every lookup is forced through the slow path.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hiconc/internal/histats"
)

// TestContainsSlowResolvesParkedMark pins the helping fallback against
// a crafted parked relocation: a marked key with no owning operation.
// The slow path must (1) report the marked key present without helping
// anything — a marked key is logically present and found directly; and
// (2) for an absent key probing the same run, complete the parked
// relocation itself and then answer from the stable view it produced,
// leaving the memory canonical.
func TestContainsSlowResolvesParkedMark(t *testing.T) {
	const domain, G = 2000, 4
	ks := KeysHomingAt(domain, G, 0, 5)
	x1, x2, mk, a := ks[0], ks[1], ks[3], ks[4]
	craft := func() *Set {
		s := NewDisplaceSet(domain, G)
		crafted := [SlotsPerGroup]uint64{uint64(x1), uint64(x2), uint64(a), uint64(mk) | slotMark}
		s.st.Load().groups[0].Store(packWord(&crafted, 4))
		return s
	}

	s := craft()
	within(t, 20*time.Second, "containsSlow wedged on a present marked key", func() {
		if !s.containsSlow(mk) {
			t.Error("containsSlow(marked key) = false")
		}
	})

	// An absent key homing at the crafted group: driven into the slow
	// path directly, the lookup must complete the parked relocation
	// itself and conclude absence from the stable view it produced.
	s = craft()
	absent := KeysHomingAt(domain, G, 0, 6)[5]
	within(t, 20*time.Second, "containsSlow wedged helping a parked mark", func() {
		if s.containsSlow(absent) {
			t.Errorf("containsSlow(%d) = true for an absent key", absent)
		}
	})
	// Helping completed the parked relocation: every key still present,
	// memory canonical — reads repaired the layout without changing the
	// abstract state.
	want := []int{x1, x2, mk, a}
	for _, k := range want {
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false after slow-path helping", k)
		}
	}
	if got, canon := s.Snapshot(), CanonicalSetSnapshot(domain, s.NumGroups(), want); got != canon {
		t.Fatalf("memory not canonical after slow-path helping:\n got:  %s\n want: %s", got, canon)
	}
}

// TestContainsSlowResolvesRestoreFlag drives the slow path through a
// crafted restore flag (a parked backward shift): the scan reads the
// flagged group as full, so an absent key cannot be judged from it; the
// slow path must run the shift and answer from the repaired layout.
func TestContainsSlowResolvesRestoreFlag(t *testing.T) {
	const domain, G = 2000, 4
	ks := KeysHomingAt(domain, G, 0, 5)
	x1, x2, x3 := ks[0], ks[1], ks[2]
	s := NewDisplaceSet(domain, G)
	// Group 0 full-with-flag: three residents and a parked hole.
	crafted := [SlotsPerGroup]uint64{uint64(x1), uint64(x2), uint64(x3), flagSlot}
	s.st.Load().groups[0].Store(packWord(&crafted, 4))
	absent := ks[4]
	within(t, 20*time.Second, "containsSlow wedged on a parked restore flag", func() {
		if s.containsSlow(absent) {
			t.Errorf("containsSlow(%d) = true for an absent key", absent)
		}
	})
	want := []int{x1, x2, x3}
	if got, canon := s.Snapshot(), CanonicalSetSnapshot(domain, s.NumGroups(), want); got != canon {
		t.Fatalf("memory not canonical after flag repair:\n got:  %s\n want: %s", got, canon)
	}
}

// TestLookupSlowPathOnly forces every displacing lookup through the
// helping fallback (retry budget zero) and replays a randomized
// single-goroutine history against a model set, across enough inserts
// to cross several online resizes. The slow path is not a degraded
// approximation — it must be exactly Contains.
func TestLookupSlowPathOnly(t *testing.T) {
	defer func(old int) { lookupRetryLimit = old }(lookupRetryLimit)
	lookupRetryLimit = 0

	const domain = 512
	s := NewDisplaceSet(domain, 2) // tiny: grows online under the churn
	model := map[int]bool{}
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 20000; i++ {
		k := rng.Intn(domain) + 1
		switch rng.Intn(3) {
		case 0:
			s.Insert(k)
			model[k] = true
		case 1:
			s.Remove(k)
			delete(model, k)
		default:
			if got := s.Contains(k); got != model[k] {
				t.Fatalf("step %d: Contains(%d) = %v, model %v", i, k, got, model[k])
			}
		}
	}
	for k := 1; k <= domain; k++ {
		if got := s.Contains(k); got != model[k] {
			t.Fatalf("final: Contains(%d) = %v, model %v", k, got, model[k])
		}
	}
}

// TestLookupMetricsWired pins the metrics contract of the slow path
// deterministically: with a zero retry budget every displacing lookup
// lands in the helping fallback, so the help counter and the
// full-budget retry observation must both record. (CtrLookupRetry
// itself only counts genuine validation races, which no
// single-goroutine schedule can force — the churn test below covers
// it statistically.)
func TestLookupMetricsWired(t *testing.T) {
	defer func(old int) { lookupRetryLimit = old }(lookupRetryLimit)
	lookupRetryLimit = 0
	r := histats.Enable()
	defer histats.Disable()
	s := NewDisplaceSet(64, 4)
	s.Insert(1)
	if !s.Contains(1) || s.Contains(2) {
		t.Fatal("slow-path lookup answered wrong")
	}
	snap := r.Snapshot()
	if got := snap.Counters[histats.CtrLookupHelp]; got != 2 {
		t.Fatalf("CtrLookupHelp = %d after two slow lookups, want 2", got)
	}
	if got := snap.Hists[histats.HistLookupRetry].Count; got != 2 {
		t.Fatalf("HistLookupRetry count = %d after two slow lookups, want 2", got)
	}
}

// TestLookupRetriesBoundedUnderChurn hammers a displacing table with
// update churn and concurrent readers, then checks the E26 contract on
// the retry metrics: every lookup that retried resolved within the
// budget (the HistLookupRetry maximum never exceeds lookupRetryLimit),
// and stable keys never misread. Readers run a fixed op count; writers
// churn the volatile key range until the readers are done.
func TestLookupRetriesBoundedUnderChurn(t *testing.T) {
	const domain, stable, readers, writers = 1024, 64, 4, 4
	readerOps := 50000
	if testing.Short() {
		readerOps = 5000
	}
	r := histats.Enable()
	defer histats.Disable()

	s := NewDisplaceSet(domain, 8)
	for k := 1; k <= stable; k++ {
		s.Insert(k)
	}
	stop := make(chan struct{})
	var writersWG, readersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := stable + 1 + rng.Intn(domain-stable)
				if rng.Intn(2) == 0 {
					s.Insert(k)
				} else {
					s.Remove(k)
				}
			}
		}(int64(w))
	}
	var misread atomic.Int64
	for g := 0; g < readers; g++ {
		readersWG.Add(1)
		go func(seed int64) {
			defer readersWG.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < readerOps; i++ {
				if k := rng.Intn(stable) + 1; !s.Contains(k) {
					misread.Store(int64(k))
					return
				}
				s.Contains(stable + 1 + rng.Intn(domain-stable))
			}
		}(int64(g))
	}
	readersWG.Wait()
	close(stop)
	writersWG.Wait()
	if k := misread.Load(); k != 0 {
		t.Fatalf("stable key misread under churn: Contains(%d) = false", k)
	}

	snap := r.Snapshot()
	if max, lim := snap.Hists[histats.HistLookupRetry].Max(), uint64(lookupRetryLimit); max > lim {
		t.Fatalf("HistLookupRetry max = %d, want <= %d", max, lim)
	}
	t.Logf("lookup retries: %d, help fallbacks: %d, retried-lookup max: %d",
		snap.Counters[histats.CtrLookupRetry],
		snap.Counters[histats.CtrLookupHelp],
		snap.Hists[histats.HistLookupRetry].Max())
}
