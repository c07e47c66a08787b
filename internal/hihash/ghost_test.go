package hihash_test

// The ghost-window gate of displacing removes (displace.go,
// ghostWindows): a remove sweeps the whole table for a stray copy only
// while some ghost window is open. Both directions are pinned here —
// crash-free traffic never sweeps, and a crash inside a window keeps
// the count positive so removes fall back to the sweep.

import (
	"testing"

	"hiconc/internal/faultinject"
	"hiconc/internal/hihash"
	"hiconc/internal/histats"
)

// TestGhostSweepSkippedWithoutCrash runs a sequential insert/remove
// cycle over a displaced fixture — evictions into the next group,
// validated displaced landings, backward shifts pulling keys home — and
// requires the window count to read 0 after every operation and no
// ghost sweep to run.
func TestGhostSweepSkippedWithoutCrash(t *testing.T) {
	const domain, G = 2000, 4
	r := histats.Enable()
	defer histats.Disable()
	s := hihash.NewDisplaceSet(domain, G)
	ks := hihash.KeysHomingAt(domain, G, 0, 2*hihash.SlotsPerGroup)
	step := func(what string, k int) {
		t.Helper()
		if n := s.GhostWindows(); n != 0 {
			t.Fatalf("after %s(%d): %d ghost windows open at quiescence, want 0", what, k, n)
		}
	}
	for round := 0; round < 3; round++ {
		// Largest first, so every later insert evicts a resident.
		for i := len(ks) - 1; i >= 0; i-- {
			s.Insert(ks[i])
			step("Insert", ks[i])
		}
		for _, k := range ks {
			s.Remove(k)
			step("Remove", k)
			s.Remove(k) // absent: the validated scan alone must answer
			step("Remove", k)
		}
	}
	snap := r.Snapshot()
	if snap.Counters[histats.CtrMarkSet] == 0 || snap.Counters[histats.CtrFlagPlaced] == 0 {
		t.Fatalf("fixture never relocated (mark-set %d, flag-placed %d)",
			snap.Counters[histats.CtrMarkSet], snap.Counters[histats.CtrFlagPlaced])
	}
	if got := snap.Counters[histats.CtrGhostSweep]; got != 0 {
		t.Fatalf("%d ghost sweeps in a crash-free sequential run, want 0", got)
	}
	if got := s.Elements(); len(got) != 0 {
		t.Fatalf("elements %v after removing every key", got)
	}
}

// TestGhostSweepAfterCrashAtMarkSet kills an insert just after it
// marked a resident for eviction. The orphaned mark keeps its window
// open, so a later remove whose validated scan finds nothing must
// still sweep; once a grow's drain supersedes the mark, the count is
// back to 0.
func TestGhostSweepAfterCrashAtMarkSet(t *testing.T) {
	const domain, G = 2000, 4
	s := hihash.NewDisplaceSet(domain, G)
	ks := hihash.KeysHomingAt(domain, G, 0, hihash.SlotsPerGroup+2)
	for _, k := range ks[1 : hihash.SlotsPerGroup+1] {
		s.Insert(k) // fills group 0
	}
	if !faultinject.RunKilled(faultinject.Plan{Point: hihash.SpMarkSet, Occurrence: 1}, func() {
		s.Insert(ks[0]) // outranks group 0's largest resident: evicts it
	}) {
		t.Fatal("the insert never reached mark-set")
	}
	if n := s.GhostWindows(); n <= 0 {
		t.Fatalf("%d ghost windows after a crash at mark-set, want > 0", n)
	}
	r := histats.Enable()
	defer histats.Disable()
	absent := ks[hihash.SlotsPerGroup+1]
	s.Remove(absent)
	if got := r.Snapshot().Counters[histats.CtrGhostSweep]; got < 1 {
		t.Fatalf("ghost sweeps = %d for a remove with an orphaned mark, want >= 1", got)
	}
	if n := s.GhostWindows(); n <= 0 {
		t.Fatalf("%d ghost windows with the orphaned mark still parked, want > 0", n)
	}
	s.Grow()
	if n := s.GhostWindows(); n != 0 {
		t.Fatalf("%d ghost windows after the drain dropped the orphaned mark, want 0", n)
	}
	for _, k := range ks[1 : hihash.SlotsPerGroup+1] {
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false after recovery", k)
		}
	}
}
