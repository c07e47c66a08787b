package hihash

// Allocation guards for the read path (E26): lookups must allocate
// nothing — the collect records of the displacing double collect live
// in stack buffers, the bounded table's match is pure ALU work, and
// Map.Get is one atomic load plus a slice walk. CI runs this file as a
// dedicated gate (TestLookupAllocs) so a future change cannot put
// allocations back on the hot path silently.

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

	t.Run("map-get", func(t *testing.T) {
		m := NewMap(256, 8)
		for k := 1; k <= 64; k++ {
			m.Inc(k)
		}
		if avg := testing.AllocsPerRun(1000, func() {
			m.Get(1)
			m.Get(200)
		}); avg != 0 {
			t.Fatalf("Map.Get allocates %.1f per run, want 0", avg)
		}
	})
}

// TestLookupAllocsMatchesEscapeGate ties this guard to the static
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
	// The surfaces TestLookupAllocs drives, spelled the way the gate
	// spells them.
	for _, fn := range []string{"Set.Contains", "Set.displaceContains", "Map.Get"} {
		if !declared[fn] {
			t.Errorf("alloc guard measures %s but the escape gate does not declare it (internal/hilint/escape.HotPaths)", fn)
		}
	}
}
