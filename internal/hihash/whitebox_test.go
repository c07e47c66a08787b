package hihash

// White-box regression tests: states that only adversarial interleavings
// reach are crafted directly into the group words, so the exact windows
// the concurrent protocol must survive are pinned as deterministic
// tests.

import (
	"testing"
	"time"
)

// within runs fn to completion on its own goroutine, failing the test if
// it wedges for d. It is a watchdog against livelock regressions, not a
// synchronization point — completion is signaled by channel close, and a
// sweep of the test tree found no bare time.Sleep synchronization
// anywhere (cross-goroutine ordering is always a channel or WaitGroup).
func within(t *testing.T, d time.Duration, wedged string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal(wedged)
	}
}

// TestPlaceKeyParkedMarkNotMax pins the self-help recursion regression:
// a marked key that is no longer its group's maximum (a larger key
// claimed a slot freed while the mark was parked). A walk that outranks
// the larger key helps the parked relocation; the helper's placement
// walk must treat the key's own mark at the source group as invisible
// and cancel the obsolete relocation in place — naively "helping" it
// from its own completion path recursed forever and overflowed the
// stack.
func TestPlaceKeyParkedMarkNotMax(t *testing.T) {
	const domain, G = 2000, 4
	s := NewDisplaceSet(domain, G)
	ks := KeysHomingAt(domain, G, 0, 5)
	x1, x2, c, mk, a := ks[0], ks[1], ks[2], ks[3], ks[4]
	// The adversarial window, crafted directly: mk is marked (its
	// eviction is parked) and a > mk occupies the slot a racing remove
	// freed, so the marked key is not the group max.
	st := s.st.Load()
	crafted := [SlotsPerGroup]uint64{uint64(x1), uint64(x2), uint64(a), uint64(mk) | slotMark}
	st.groups[0].Store(packWord(&crafted, 4))
	var rsp int
	within(t, 20*time.Second, "Insert wedged helping a parked, outranked mark", func() {
		rsp = s.Insert(c)
	})
	if rsp != 0 {
		t.Fatalf("Insert(%d) = %d", c, rsp)
	}
	// The cancel-in-place resolution must leave every key present and
	// the layout canonical.
	want := []int{x1, x2, c, mk, a}
	for _, k := range want {
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false after recovery", k)
		}
	}
	if got, canon := s.Snapshot(), CanonicalSetSnapshot(domain, s.NumGroups(), want); got != canon {
		t.Fatalf("memory not canonical after recovery:\n got:  %s\n want: %s", got, canon)
	}
}

// TestRemoveWithParkedOutrankedMark drives Remove through the same
// crafted window: removing the marked key itself, and removing a plain
// resident, must both resolve the parked relocation rather than spin or
// resurrect.
func TestRemoveWithParkedOutrankedMark(t *testing.T) {
	const domain, G = 2000, 4
	ks := KeysHomingAt(domain, G, 0, 5)
	x1, x2, mk, a := ks[0], ks[1], ks[3], ks[4]
	craft := func() *Set {
		s := NewDisplaceSet(domain, G)
		crafted := [SlotsPerGroup]uint64{uint64(x1), uint64(x2), uint64(a), uint64(mk) | slotMark}
		s.st.Load().groups[0].Store(packWord(&crafted, 4))
		return s
	}
	for _, victim := range []int{mk, x1, a} {
		s := craft()
		within(t, 20*time.Second, "Remove wedged on the parked mark", func() {
			s.Remove(victim)
		})
		if s.Contains(victim) {
			t.Fatalf("Contains(%d) = true after Remove", victim)
		}
		// A crafted mark has no owning operation to complete it, so a
		// remove of an unrelated key may leave it parked (in real
		// executions the owner finishes it). A grow's drain supersedes
		// any parked relocation; after it the memory must be canonical.
		s.Grow()
		if got, canon := s.Snapshot(), CanonicalSetSnapshot(domain, s.NumGroups(), s.Elements()); got != canon {
			t.Fatalf("Remove(%d): memory not canonical:\n got:  %s\n want: %s", victim, got, canon)
		}
	}
}

// TestRelocateHelpingRing pins the helping-ring regression: three full
// groups, each holding one marked key whose placement walk outranks the
// residents of the next group round the ring — key 1 (home 2) marked in
// g0, key 2 (home 1) marked in g2, key 3 (home 0) marked in g1. Each
// walk finds its first group jammed by the next ring mark and helps it
// first, so relocateOut(1) → placeKey(1) → relocateOut(2) → placeKey(2)
// → relocateOut(3) → placeKey(3) → relocateOut(1) → … recursed until the
// stack overflowed. The walk must pass a group jammed only by marks its
// own goroutine is already relocating, leave every key present exactly
// once, and a grow must then restore canonical memory.
func TestRelocateHelpingRing(t *testing.T) {
	const domain, G = 200, 3
	for k, home := range map[int]int{1: 2, 2: 1, 3: 0} {
		if g := GroupOf(k, G); g != home {
			t.Fatalf("GroupOf(%d, %d) = %d, the ring needs %d", k, G, g, home)
		}
	}
	s := NewDisplaceSet(domain, G)
	st := s.st.Load()
	for g, slots := range [G][SlotsPerGroup]uint64{
		{1 | slotMark, 190, 191, 192},
		{3 | slotMark, 193, 194, 195},
		{2 | slotMark, 196, 197, 198},
	} {
		st.groups[g].Store(packWord(&slots, SlotsPerGroup))
	}
	within(t, 20*time.Second, "relocateOut wedged on a helping ring", func() {
		s.relocateOut(st, 1, 0, nil)
	})
	want := []int{1, 2, 3, 190, 191, 192, 193, 194, 195, 196, 197, 198}
	copies := map[int]int{}
	for _, w := range s.RawWords() {
		for i := 0; i < SlotsPerGroup; i++ {
			if sl := slotAt(w, i); sl != 0 && sl != flagSlot {
				copies[int(sl&slotKey)]++
			}
		}
	}
	for _, k := range want {
		if copies[k] != 1 || !s.Contains(k) {
			t.Fatalf("key %d: %d physical copies, Contains = %v after the ring resolved\n%s", k, copies[k], s.Contains(k), s.Snapshot())
		}
	}
	s.Grow()
	if got, canon := s.Snapshot(), CanonicalSetSnapshot(domain, s.NumGroups(), want); got != canon {
		t.Fatalf("memory not canonical after the ring and a grow:\n got:  %s\n want: %s", got, canon)
	}
}

// TestRelocateBackToSourceResolvesInPlace pins the restore-cascade
// livelock: a marked key c whose walk finds every group before its own
// source full comes back to that source, which has room. Adding a
// second, unmarked c there left a marked and an unmarked copy in one
// group; a remove that opened a hole on c's run then ran restore, which
// picked the unmarked copy, found the marked one first and retried
// forever. The hook opens that hole the instant the walk lands.
func TestRelocateBackToSourceResolvesInPlace(t *testing.T) {
	const domain, G = 200, 3
	ks := KeysHomingAt(domain, G, 0, SlotsPerGroup+1)
	c := ks[SlotsPerGroup]
	y := KeysHomingAt(domain, G, 1, 1)[0]
	s := NewDisplaceSet(domain, G)
	st := s.st.Load()
	full := [SlotsPerGroup]uint64{uint64(ks[0]), uint64(ks[1]), uint64(ks[2]), uint64(ks[3])}
	st.groups[0].Store(packWord(&full, SlotsPerGroup))
	source := [SlotsPerGroup]uint64{uint64(c) | slotMark, uint64(y)}
	st.groups[1].Store(packWord(&source, 2))
	landed := false
	SetStepHook(func(p Steppoint) {
		if !landed && (p == SpDestWritten || p == SpEvictSwap) {
			landed = true
			s.Remove(ks[0])
		}
	})
	defer SetStepHook(nil)
	within(t, 20*time.Second, "restore wedged on a key marked and unmarked in one group", func() {
		s.relocateOut(st, c, 1, nil)
	})
	want := []int{ks[1], ks[2], ks[3], c, y}
	for _, k := range want {
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false after the relocation\n%s", k, s.Snapshot())
		}
	}
	s.Grow()
	if got, canon := s.Snapshot(), CanonicalSetSnapshot(domain, s.NumGroups(), want); got != canon {
		t.Fatalf("memory not canonical after the relocation and a grow:\n got:  %s\n want: %s", got, canon)
	}
}

// TestInPlaceCancelFillsCleanedGroup pins the ghost-window gap of an
// in-place cancel: m is marked in a full group 0 (its relocation
// parked). x, homing at 0 as well, passes group 0 and evicts s from
// group 1; the hook removes two residents of group 0 the instant x's
// eviction mark lands, and their backward shifts skip the marked s and
// find no candidate. x then lands in group 1, and its validation passes
// group 0, which m's mark keeps from reading clean. When m's relocation
// is then cancelled in place, group 0 turns clean with x beyond it. The
// cancel must pull x back before it closes m's window: left beyond a
// clean group with no window open, x was invisible to Contains, and a
// Remove answered absent without sweeping and left the copy for a
// grow's drain to bring back.
func TestInPlaceCancelFillsCleanedGroup(t *testing.T) {
	const domain, G = 200, 3
	home0 := KeysHomingAt(domain, G, 0, SlotsPerGroup+1)
	a, b, c, m, x := home0[0], home0[1], home0[2], home0[3], home0[4]
	home1 := KeysHomingAt(domain, G, 1, SlotsPerGroup)
	p, q, r := home1[0], home1[1], home1[2]
	s1 := 0 // the largest key homing at group 1: x outranks it
	for k := domain; s1 == 0; k-- {
		if GroupOf(k, G) == 1 {
			s1 = k
		}
	}
	if s1 <= x || s1 <= r {
		t.Fatalf("fixture: s = %d must outrank x = %d and r = %d", s1, x, r)
	}
	s := NewDisplaceSet(domain, G)
	st := s.st.Load()
	full0 := [SlotsPerGroup]uint64{uint64(a), uint64(b), uint64(c), uint64(m) | slotMark}
	st.groups[0].Store(packWord(&full0, SlotsPerGroup))
	s.ghost.open() // the crafted mark's window, as its owner would have opened it
	full1 := [SlotsPerGroup]uint64{uint64(p), uint64(q), uint64(r), uint64(s1)}
	st.groups[1].Store(packWord(&full1, SlotsPerGroup))
	fired := false
	SetStepHook(func(sp Steppoint) {
		if !fired && sp == SpMarkSet {
			fired = true
			s.Remove(a)
			s.Remove(b)
		}
	})
	defer SetStepHook(nil)
	within(t, 20*time.Second, "Insert wedged evicting past a parked mark", func() {
		s.Insert(x)
	})
	SetStepHook(nil)
	if !fired {
		t.Fatal("the insert never marked a key for eviction")
	}
	within(t, 20*time.Second, "relocateOut wedged cancelling in place", func() {
		s.relocateOut(st, m, 0, nil)
	})
	if n := s.GhostWindows(); n != 0 {
		t.Fatalf("%d ghost windows open after the cancel, want 0", n)
	}
	want := []int{c, m, x, p, q, r, s1}
	for _, k := range want {
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false after the cancel\n%s", k, s.Snapshot())
		}
	}
	if got, canon := s.Snapshot(), CanonicalSetSnapshot(domain, s.NumGroups(), want); got != canon {
		t.Fatalf("memory not canonical after the cancel:\n got:  %s\n want: %s", got, canon)
	}
	s.Remove(x)
	s.Grow()
	if s.Contains(x) {
		t.Fatalf("Contains(%d) = true after Remove and a grow\n%s", x, s.Snapshot())
	}
}

// TestStaleWalkStandsDown pins the walk-source rule: a placement walk
// whose source slot has left its group places nothing. A relocation
// helper or a migration drainer that read its source and was preempted
// may resume after another helper finished the move and the owner's
// Remove took the key; landing then brought the removed key back. Each
// case hands placeKey a source that is already gone and requires
// wsLost and an untouched table: a relocation back at its own source
// group (the exact test, on the word the landing would CAS), a
// relocation that would land or evict before reaching its source, and
// a drain whose old-array slot was dropped.
func TestStaleWalkStandsDown(t *testing.T) {
	const domain, G = 200, 3
	k := KeysHomingAt(domain, G, 0, 1)[0]
	full := KeysHomingAt(domain, G, 0, SlotsPerGroup+1)[1:]
	cases := []struct {
		name  string
		craft func(st *tableState) *walkSrc
	}{
		{"at its source", func(st *tableState) *walkSrc {
			return &walkSrc{st, 0, uint64(k) | slotMark}
		}},
		{"before its source", func(st *tableState) *walkSrc {
			return &walkSrc{st, 2, uint64(k) | slotMark}
		}},
		{"evicting before its source", func(st *tableState) *walkSrc {
			var slots [SlotsPerGroup]uint64
			for i, f := range full {
				slots[i] = uint64(f) // all outranked by k: the walk would evict
			}
			st.groups[0].Store(packWord(&slots, SlotsPerGroup))
			return &walkSrc{st, 2, uint64(k) | slotMark}
		}},
		{"drain", func(*tableState) *walkSrc {
			return &walkSrc{newTableState(G), 1, uint64(k)}
		}},
	}
	for _, tc := range cases {
		s := NewDisplaceSet(domain, G)
		st := s.st.Load()
		src := tc.craft(st)
		before := s.Snapshot()
		if rs, _ := s.placeKey(st, k, src, nil); rs != wsLost {
			t.Fatalf("%s: placeKey = %v with the source gone, want wsLost", tc.name, rs)
		}
		if got := s.Snapshot(); got != before {
			t.Fatalf("%s: a stale walk changed the table:\n got:  %s\n want: %s", tc.name, got, before)
		}
		if n := s.GhostWindows(); n != 0 {
			t.Fatalf("%s: %d ghost windows left open by a stale walk", tc.name, n)
		}
	}
}
