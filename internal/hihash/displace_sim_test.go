package hihash_test

import (
	"errors"
	"testing"

	"hiconc/internal/core"
	"hiconc/internal/hicheck"
	"hiconc/internal/hihash"
	"hiconc/internal/sim"
	"hiconc/internal/spec"
)

func growOp() core.Op { return core.Op{Name: spec.OpGrow} }

// displaceParams is the exhaustively checkable geometry: 3 keys over 2
// groups of 1 slot (capacity 2 at level 0, 4 at level 1), so
// displacement, RspFull-at-capacity and the online resize all occur
// within checker bounds.
var displaceParams = hihash.Params{T: 3, G: 2, B: 1}

// TestDisplaceSimSequentialCanon: every sequential execution of the
// displacing twin reaching the same abstract state (key set + level)
// leaves the same memory, and that memory is exactly the canonical
// displaced layout DisplaceCanonicalMemory computes. This is the
// machine-checked order-independence of the displaced layout, including
// across the resize boundary.
func TestDisplaceSimSequentialCanon(t *testing.T) {
	p := displaceParams
	h := hihash.NewDisplaceHarness(p, 2, hihash.DisplaceCanonical)
	c, err := hicheck.BuildCanon(h, 3, 4000)
	if err != nil {
		t.Fatalf("%s: %v", h.Name, err)
	}
	states, err := core.Reachable(h.Spec, 200)
	if err != nil {
		t.Fatal(err)
	}
	// All 15 reachable states except the full level-1 table, which needs
	// 4 operations (grow plus three inserts) — beyond the 3-op bound.
	if len(c.ByState) < len(states)-1 {
		t.Errorf("canonical map covers %d states, want >= %d", len(c.ByState), len(states)-1)
	}
	sp := hihash.NewDisplaceSpec(p)
	for st, mem := range c.ByState {
		elems, level := sp.DisplaceStateElems(st)
		want := hihash.DisplaceCanonicalMemory(p, elems, level)
		if sim.Fingerprint(mem) != sim.Fingerprint(want) {
			t.Errorf("state %q: canonical memory %v, want %v", st, mem, want)
		}
	}
}

// TestDisplaceSimSQHIAndLinearizable is the headline machine check for
// the displacing variant: cross-group relocation (marks, helping,
// restore flags) keeps the twin linearizable, and at every
// state-quiescent configuration the memory is the canonical displaced
// layout of a linearization-consistent state — state-quiescent HI, the
// class the HICHT paper proves. Exhaustive within budget, then deep
// randomized schedules.
func TestDisplaceSimSQHIAndLinearizable(t *testing.T) {
	// The three full-budget sim checks (this one, ResizeSchedules and
	// WideGroups) take minutes of CPU each and share no mutable state,
	// so they run in parallel: serially they take most of go test's
	// default ten-minute package timeout on a 2-core host.
	t.Parallel()
	p := displaceParams
	h := hihash.NewDisplaceHarness(p, 2, hihash.DisplaceCanonical)
	c, err := hicheck.BuildCanon(h, 3, 4000)
	if err != nil {
		t.Fatalf("%s: %v", h.Name, err)
	}
	a, b := sameGroupKeys(t, p.T, p.G)
	other := 1
	for other == a || other == b {
		other++
	}
	scripts := [][][]core.Op{
		{{ins(a)}, {ins(b)}},          // displacement race in one group
		{{ins(a)}, {ins(other)}},      // distinct groups in parallel
		{{ins(a), rem(a)}, {ins(b)}},  // delete + backward shift vs insert
		{{ins(a), look(b)}, {ins(b)}}, // lookup racing a displacement
		{{rem(a), ins(b)}, {ins(a)}},  // remove-first races
		{{ins(a), ins(b)}, {look(a)}}, // double collect under churn
	}
	maxSteps := 18
	budget := 120000
	if !testing.Short() {
		maxSteps = 26
		budget = 1200000
	}
	if _, err := hicheck.CheckExhaustive(c, h, scripts, hicheck.StateQuiescent, maxSteps, budget, true); err != nil && !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("%s: %v", h.Name, err)
	}
	// Deep randomized pass over full executions.
	fuzzN := 60
	fuzzSteps := 2500
	if !testing.Short() {
		fuzzN = 400
		fuzzSteps = 6000
	}
	if err := hicheck.CheckRandom(c, h, scripts, hicheck.StateQuiescent, fuzzN, 31, fuzzSteps, true); err != nil {
		t.Fatalf("%s fuzz: %v", h.Name, err)
	}
}

// TestDisplaceSimResizeSchedules drives schedules that cross the online
// resize: a grow racing inserts, removes and lookups must stay
// linearizable, and once the migration (and every other update) has
// completed, the memory must be the canonical layout of the doubled
// geometry.
func TestDisplaceSimResizeSchedules(t *testing.T) {
	t.Parallel()
	p := displaceParams
	h := hihash.NewDisplaceHarness(p, 2, hihash.DisplaceCanonical)
	c, err := hicheck.BuildCanon(h, 3, 4000)
	if err != nil {
		t.Fatalf("%s: %v", h.Name, err)
	}
	a, b := sameGroupKeys(t, p.T, p.G)
	scripts := [][][]core.Op{
		{{growOp()}, {ins(a)}},          // grow vs a concurrent insert
		{{ins(a), growOp()}, {ins(b)}},  // migration of a displaced pair
		{{growOp(), look(a)}, {ins(a)}}, // lookup across the boundary
		{{ins(a), growOp()}, {rem(a)}},  // remove racing the drain
		{{growOp()}, {growOp()}},        // duelling grows
	}
	maxSteps := 20
	budget := 120000
	if !testing.Short() {
		maxSteps = 30
		budget = 1200000
	}
	if _, err := hicheck.CheckExhaustive(c, h, scripts, hicheck.StateQuiescent, maxSteps, budget, true); err != nil && !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("%s: %v", h.Name, err)
	}
	fuzzN := 60
	fuzzSteps := 3000
	if !testing.Short() {
		fuzzN = 400
		fuzzSteps = 8000
	}
	if err := hicheck.CheckRandom(c, h, scripts, hicheck.StateQuiescent, fuzzN, 97, fuzzSteps, true); err != nil {
		t.Fatalf("%s fuzz: %v", h.Name, err)
	}
}

// TestDisplaceSimWideGroups checks the displacing twin at B=2 — the
// geometry where a group can hold a marked key next to a larger
// unmarked one, the state class behind the parked-mark self-help
// regression (whitebox_test.go), which B=1 groups cannot express. Keys
// 2, 4 and 5 share home group 0 under this mixer, so three inserts
// overflow a two-slot group and displacement, eviction marks and the
// backward shift all run with multi-key groups.
func TestDisplaceSimWideGroups(t *testing.T) {
	t.Parallel()
	p := hihash.Params{T: 5, G: 2, B: 2}
	if hihash.GroupOf(2, 2) != hihash.GroupOf(4, 2) || hihash.GroupOf(4, 2) != hihash.GroupOf(5, 2) {
		t.Fatal("geometry assumption broken: keys 2,4,5 no longer share a group")
	}
	h := hihash.NewDisplaceHarness(p, 2, hihash.DisplaceCanonical)
	// Depth 3 is the floor: the scripts overflow a two-slot group, so
	// the canonical map must cover three-key states.
	c, err := hicheck.BuildCanon(h, 3, 6000)
	if err != nil {
		t.Fatalf("%s: %v", h.Name, err)
	}
	sp := hihash.NewDisplaceSpec(p)
	for st, mem := range c.ByState {
		elems, level := sp.DisplaceStateElems(st)
		want := hihash.DisplaceCanonicalMemory(p, elems, level)
		if sim.Fingerprint(mem) != sim.Fingerprint(want) {
			t.Errorf("state %q: canonical memory %v, want %v", st, mem, want)
		}
	}
	scripts := [][][]core.Op{
		{{ins(2), ins(4)}, {ins(5)}},          // overflow a two-slot group
		{{ins(4), ins(5)}, {ins(2), rem(4)}},  // eviction mark vs delete
		{{ins(2), rem(2)}, {ins(4), ins(5)}},  // backward shift vs spill
		{{ins(5), look(2)}, {ins(2), ins(4)}}, // lookup across a wide-group relocation
	}
	maxSteps := 18
	budget := 120000
	if !testing.Short() {
		maxSteps = 24
		budget = 800000
	}
	if _, err := hicheck.CheckExhaustive(c, h, scripts, hicheck.StateQuiescent, maxSteps, budget, true); err != nil && !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("%s: %v", h.Name, err)
	}
	fuzzN := 80
	fuzzSteps := 3000
	if !testing.Short() {
		fuzzN = 400
		fuzzSteps = 8000
	}
	if err := hicheck.CheckRandom(c, h, scripts, hicheck.StateQuiescent, fuzzN, 53, fuzzSteps, true); err != nil {
		t.Fatalf("%s fuzz: %v", h.Name, err)
	}
}

// TestDisplaceSimPerfectHIRefuted: perfect HI is impossible for the
// displacing variant — one insert can canonically relocate a key across
// two group words, so adjacent canonical layouts are at Hamming distance
// >= 2 and Proposition 6 rules the class out for single-word steps. The
// checker must exhibit a concrete mid-relocation witness, and the
// canonical map must show the distance obstruction.
func TestDisplaceSimPerfectHIRefuted(t *testing.T) {
	p := displaceParams
	h := hihash.NewDisplaceHarness(p, 2, hihash.DisplaceCanonical)
	c, err := hicheck.BuildCanon(h, 3, 4000)
	if err != nil {
		t.Fatalf("%s: %v", h.Name, err)
	}
	if d := c.MaxCanonDistance(); d < 2 {
		t.Fatalf("MaxCanonDistance = %d, want >= 2 (the Proposition 6 obstruction)", d)
	}
	a, b := sameGroupKeys(t, p.T, p.G)
	scripts := [][][]core.Op{
		{{ins(a)}, {ins(b)}},
		{{ins(a), rem(a)}, {ins(b)}},
	}
	v := hicheck.FindViolation(c, h, scripts, hicheck.Perfect, 22, 400000)
	if v == nil {
		t.Fatal("no perfect-HI violation found, but Proposition 6 demands one")
	}
}

// TestDisplaceSimNoShiftAblationFails: without the backward shift, a
// deletion strands displaced keys beyond holes, so two histories
// reaching the same key set leave different layouts — refuted already at
// the sequential level, like the append ablation of the bounded twin.
func TestDisplaceSimNoShiftAblationFails(t *testing.T) {
	h := hihash.NewDisplaceHarness(displaceParams, 2, hihash.DisplaceNoShift)
	_, err := hicheck.BuildCanon(h, 3, 4000)
	var v *hicheck.SeqHIViolation
	if !errors.As(err, &v) {
		t.Fatalf("BuildCanon err = %v, want a sequential HI violation", err)
	}
}
