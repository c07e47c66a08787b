package obj_test

import (
	"math/rand"
	"sync"
	"testing"

	"hiconc/internal/hihash"
	"hiconc/internal/obj"
)

// Delete-heavy concurrent snapshot coverage: the displacing table's
// interesting windows (restore flags, backward shifts, pull-backs) open
// on deletes, so a remove-dominated concurrent workload stresses exactly
// the repair machinery. At every quiescent point the composite memory
// must be the canonical layout of whatever key set the race realized —
// regardless of which removes won.

// TestHashSetDeleteHeavyQuiescentCanonical races workers that remove
// roughly 60% of the time against a fixed key pool, then checks at
// quiescence that the snapshot is canonical for the realized elements
// and that membership answers agree with it.
func TestHashSetDeleteHeavyQuiescentCanonical(t *testing.T) {
	const domain, workers = 48, 8
	rounds, opsPerWorker := 12, 400
	if testing.Short() {
		rounds, opsPerWorker = 4, 150
	}
	h := obj.NewHashSet(domain)
	for round := 0; round < rounds; round++ {
		// Refill so removes have something to chew on, then race.
		for k := 1; k <= domain; k++ {
			if k%3 != 0 {
				h.Insert(k)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsPerWorker; i++ {
					k := rng.Intn(domain) + 1
					if rng.Intn(10) < 6 {
						h.Remove(k)
					} else {
						h.Insert(k)
					}
				}
			}(int64(round*workers + w + 1))
		}
		wg.Wait()
		elems := h.Elements()
		if got, want := h.Snapshot(), hihash.CanonicalSetSnapshot(domain, h.NumGroups(), elems); got != want {
			t.Fatalf("round %d: quiescent memory not canonical for %v:\n got:  %s\n want: %s", round, elems, got, want)
		}
		in := map[int]bool{}
		for _, k := range elems {
			in[k] = true
		}
		for k := 1; k <= domain; k++ {
			if h.Contains(k) != in[k] {
				t.Fatalf("round %d: Contains(%d) = %v disagrees with Elements %v", round, k, h.Contains(k), elems)
			}
		}
	}
}
