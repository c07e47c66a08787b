package hirec_test

import (
	"sort"
	"sync"
	"testing"

	"hiconc/internal/hirec"
	"hiconc/internal/histats"
	"hiconc/internal/obj"
)

// TestRecorderChurnUnderTraffic mirrors hihash's hook-churn race test one
// layer up: four goroutines hammer a HashSet (recorded at the obj layer,
// stepping inside hihash) — including a mid-run Grow — while a fifth
// installs and uninstalls the flight recorder in a tight loop. The
// point is the race detector: installs must be safe against concurrent
// invoke/return/step traffic, in-flight tokens must finish against the
// recorder they started on, and the table must come out intact. Run
// with -race.
func TestRecorderChurnUnderTraffic(t *testing.T) {
	defer histats.Record(nil)
	const workers = 4
	opsPer := 3000
	if testing.Short() {
		opsPer = 500
	}
	const domain = 64
	s := obj.NewHashSetWithGroups(domain, 4)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				key := (w*opsPer+i)%domain + 1
				switch i % 3 {
				case 0:
					s.Insert(key)
				case 1:
					s.Contains(key)
				case 2:
					s.Remove(key)
				}
				if w == 0 && i == opsPer/2 {
					s.Grow()
				}
			}
		}(w)
	}

	flips := 300
	if testing.Short() {
		flips = 50
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			r := hirec.NewRecorder(1 << 12)
			histats.Record(r)
			if histats.Recording() != r {
				// Another flip may already have swapped it, but in this
				// test we are the only installer.
				t.Error("Recording disagrees with the recorder just installed")
				return
			}
			histats.Record(nil)
		}
	}()
	wg.Wait()

	// Table integrity: every key was last inserted or removed by some
	// deterministic interleaving; just check membership is coherent.
	elems := s.Elements()
	if !sort.IntsAreSorted(elems) {
		t.Fatal("Elements not sorted")
	}
	for _, v := range elems {
		if v < 1 || v > domain {
			t.Fatalf("element %d out of domain", v)
		}
		if !s.Contains(v) {
			t.Fatalf("Elements reports %d but Contains denies it", v)
		}
	}

	// Held-recorder sanity: with churn over, a recorded burst must
	// extract cleanly.
	r := hirec.NewRecorder(1 << 12)
	histats.Record(r)
	for v := 1; v <= 16; v++ {
		s.Insert(v)
	}
	histats.Record(nil)
	recs, err := hirec.Records(r.Snapshot())
	if err != nil {
		t.Fatalf("post-churn extraction: %v", err)
	}
	if len(recs) != 16 {
		t.Fatalf("recorded %d ops, want 16", len(recs))
	}
}
