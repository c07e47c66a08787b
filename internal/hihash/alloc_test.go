package hihash

// Allocation guards for the read path (E26) and the update path:
// lookups and set updates must allocate nothing — the collect records
// of the displacing double collect and of a remove live in stack
// buffers, and the bounded table's match is pure ALU work. CI runs this
// file as a dedicated gate (TestLookupAllocs, TestUpdateAllocs) so a
// future change cannot put allocations back on a hot path silently.

import (
	"testing"

	"hiconc/internal/hilint/escape"
)

// TestLookupAllocs pins every lookup surface at zero allocations per
// operation, at quiescence, over states that include displaced keys
// (probe runs longer than one group) and a table that has grown online.
func TestLookupAllocs(t *testing.T) {
	const domain = 2000

	t.Run("bounded-contains", func(t *testing.T) {
		s := NewSet(domain, DefaultGroups(domain))
		for k := 1; k <= 64; k++ {
			s.Insert(k)
		}
		hit, miss := 1, 65
		if avg := testing.AllocsPerRun(1000, func() {
			s.Contains(hit)
			s.Contains(miss)
		}); avg != 0 {
			t.Fatalf("bounded Contains allocates %.1f per run, want 0", avg)
		}
	})

	t.Run("displace-contains", func(t *testing.T) {
		const G = 4
		s := NewDisplaceSet(domain, G)
		// Overfill one home group so its run displaces across groups:
		// SlotsPerGroup+2 keys homing at group 0 force cross-group
		// probe runs on both hits and misses.
		ks := KeysHomingAt(domain, G, 0, SlotsPerGroup+3)
		for _, k := range ks[:SlotsPerGroup+2] {
			s.Insert(k)
		}
		displacedHit, miss := ks[SlotsPerGroup+1], ks[SlotsPerGroup+2]
		if !s.Contains(displacedHit) || s.Contains(miss) {
			t.Fatal("displaced fixture is wrong")
		}
		if avg := testing.AllocsPerRun(1000, func() {
			s.Contains(displacedHit)
			s.Contains(miss)
		}); avg != 0 {
			t.Fatalf("displacing Contains allocates %.1f per run, want 0", avg)
		}
	})

	t.Run("displace-contains-after-grow", func(t *testing.T) {
		s := NewDisplaceSet(domain, 2)
		for k := 1; k <= 256; k++ {
			s.Insert(k) // grows the group array online several times
		}
		if s.NumGroups() <= 2 {
			t.Fatal("fixture did not grow")
		}
		if avg := testing.AllocsPerRun(1000, func() {
			s.Contains(128)
			s.Contains(257)
		}); avg != 0 {
			t.Fatalf("post-grow Contains allocates %.1f per run, want 0", avg)
		}
	})
}

// TestUpdateAllocs pins Insert and Remove of present and absent keys
// at zero allocations per operation, at quiescence: on the bounded
// table, and on a displacing fixture whose home group overflows, so
// every cycle evicts a resident into the next group, validates the
// displaced landing, flags a hole and runs the backward shift that
// pulls the evicted key home again.
func TestUpdateAllocs(t *testing.T) {
	const domain = 2000

	t.Run("bounded", func(t *testing.T) {
		s := NewSet(domain, DefaultGroups(domain))
		for k := 1; k <= 64; k++ {
			s.Insert(k)
		}
		const k = 65
		if avg := testing.AllocsPerRun(1000, func() {
			s.Insert(k) // absent: insert
			s.Insert(k) // present: no-op
			s.Remove(k) // present: remove
			s.Remove(k) // absent: no-op
		}); avg != 0 {
			t.Fatalf("bounded updates allocate %.1f per run, want 0", avg)
		}
	})

	t.Run("displace", func(t *testing.T) {
		const G = 4
		s := NewDisplaceSet(domain, G)
		// SlotsPerGroup+1 keys homing at group 0: the largest is
		// displaced into group 1. The cycled key is the smallest of its
		// home, so inserting it evicts a resident across groups, and
		// removing it pulls that resident back.
		ks := KeysHomingAt(domain, G, 0, SlotsPerGroup+2)
		k := ks[0]
		for _, x := range ks[1:] {
			s.Insert(x)
		}
		s.Insert(k)
		s.Remove(k)
		if s.Contains(k) || !s.Contains(ks[len(ks)-1]) || s.NumGroups() != G {
			t.Fatal("displaced fixture is wrong")
		}
		if avg := testing.AllocsPerRun(1000, func() {
			s.Insert(k)
			s.Insert(k)
			s.Remove(k)
			s.Remove(k)
		}); avg != 0 {
			t.Fatalf("displacing updates allocate %.1f per run, want 0", avg)
		}
		if s.NumGroups() != G {
			t.Fatal("the fixture grew: growth allocates a new group array by design")
		}
	})
}

// TestLookupAllocsMatchesEscapeGate ties these guards to the static
// escape-audit gate (internal/hilint/escape): every entry point the
// runs above measure must be on the gate's declared hot-path list, so
// the dynamic zero-alloc check and the compiler-proof static check
// cannot drift apart — a function measured here but dropped from the
// gate would lose its per-commit escape proof silently.
func TestLookupAllocsMatchesEscapeGate(t *testing.T) {
	declared := map[string]bool{}
	for _, fn := range escape.HotFuncs("./internal/hihash") {
		declared[fn] = true
	}
	if len(declared) == 0 {
		t.Fatal("escape gate declares no hot paths for ./internal/hihash")
	}
	// The surfaces TestLookupAllocs and TestUpdateAllocs drive, spelled
	// the way the gate spells them.
	for _, fn := range []string{
		"Set.Contains", "Set.displaceContains",
		"Set.Insert", "Set.Remove", "Set.displaceInsert", "Set.displaceRemove",
		"Set.placeKey", "Set.placed",
	} {
		if !declared[fn] {
			t.Errorf("alloc guard measures %s but the escape gate does not declare it (internal/hilint/escape.HotPaths)", fn)
		}
	}
}
