package hihash

import (
	"sync"
	"sync/atomic"
	"testing"

	"hiconc/internal/hirec"
	"hiconc/internal/histats"
)

// TestHookChurnUnderTraffic races the three observer install paths — the
// steppoint hook, the histats recorder and the hirec flight recorder —
// against live table traffic.
// Sites that loaded an old observer set finish against it, so churning
// all three while four goroutines insert, remove, look up and grow
// must be race-clean (this test exists for -race), must never lose
// table operations, and must leave no ghost window open.
func TestHookChurnUnderTraffic(t *testing.T) {
	const (
		workers = 4
		domain  = 64
		opsPer  = 3000
		flips   = 300
	)
	s := NewDisplaceSet(domain, 4)
	var fired atomic.Uint64
	hook := func(Steppoint) { fired.Add(1) }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				k := (w*opsPer+i)%domain + 1
				s.Insert(k)
				s.Contains(k)
				if i%3 == 0 {
					s.Remove(k)
				}
				if w == 0 && i == opsPer/2 {
					s.Grow()
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // churn all three observers while the table runs
		defer wg.Done()
		for i := 0; i < flips; i++ {
			SetStepHook(hook)
			histats.Enable()
			histats.Record(hirec.NewRecorder(1 << 12))
			SetStepHook(nil)
			histats.Disable()
			histats.Record(nil)
		}
	}()
	wg.Wait()
	SetStepHook(nil)
	histats.Disable()
	histats.Record(nil)

	// The table itself must be unharmed: every key whose last op was an
	// insert is present.
	for k := 1; k <= domain; k++ {
		s.Insert(k)
	}
	for k := 1; k <= domain; k++ {
		if !s.Contains(k) {
			t.Fatalf("key %d lost after hook churn", k)
		}
	}
	if n := s.GhostWindows(); n != 0 {
		t.Fatalf("%d ghost windows open at crash-free quiescence, want 0", n)
	}
	// Sanity-check the wiring with the hook held installed: the racing
	// windows above may all miss a step on a loaded single-core machine,
	// so don't require fired > 0 from the churn itself.
	SetStepHook(hook)
	before := fired.Load()
	s.Remove(1)
	s.Insert(1)
	SetStepHook(nil)
	if fired.Load() == before {
		t.Error("the hook never observed a step while installed")
	}
}
