package faultinject_test

import (
	"slices"
	"testing"
	"time"

	"hiconc/internal/faultinject"
	"hiconc/internal/hihash"
)

// Protocol bugs the checkers caught, replayed as crash schedules: each
// test reaches the adversarial window through real operations and an
// injected Kill/Park at a labeled steppoint, instead of crafting group
// words directly (whitebox_test.go still pins the raw states; these pin
// the executions that produce them).

// kill runs fn on a victim killed at point's occurrence-th firing,
// failing the test if the plan never fired.
func kill(t *testing.T, point hihash.Steppoint, occurrence int, fn func()) {
	t.Helper()
	if plan := (faultinject.Plan{Point: point, Occurrence: occurrence}); !faultinject.RunKilled(plan, fn) {
		t.Fatalf("%s never fired; the script does not reach the window", plan)
	}
}

// TestCrashBugReplays drives each pinned bug's schedule.
func TestCrashBugReplays(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"stranded-displacement", replayStrandedDisplacement},
		{"drain-resurrection", replayDrainResurrection},
		{"runaway-growth", replayRunawayGrowth},
		{"parked-mark-self-help", replayParkedMarkSelfHelp},
		{"drain-misread", replayDrainMisread},
	} {
		t.Run(tc.name, tc.run)
	}
}

// replayStrandedDisplacement: an insert dies right after its displaced
// key lands (SpDestWritten), before the post-placement reachability
// validation. A remove then frees a slot earlier in the key's probe run;
// without the backward shift the key would sit stranded beyond a hole
// where scans stop — PR 4's first checker catch.
func replayStrandedDisplacement(t *testing.T) {
	ks := hihash.KeysHomingAt(displaceDomain, displaceGroups, 0, hihash.SlotsPerGroup+1)
	s := hihash.NewDisplaceSet(displaceDomain, displaceGroups)
	// The first four inserts each claim an empty slot (one SpDestWritten
	// apiece); the fifth overflows the home group and lands displaced —
	// the fifth firing is the unvalidated placement.
	kill(t, hihash.SpDestWritten, len(ks), func() {
		for _, k := range ks {
			s.Insert(k)
		}
	})
	displacedKey := ks[len(ks)-1]
	if !s.Contains(displacedKey) {
		t.Fatalf("Contains(%d) = false right after the crash; the displaced copy must already be live", displacedKey)
	}
	// The hole opens before the displaced key; the remover's backward
	// shift must pull it back into reach.
	s.Remove(ks[0])
	if !s.Contains(displacedKey) {
		t.Fatalf("Contains(%d) = false after a hole opened before it: stranded displacement", displacedKey)
	}
	want := ks[1:]
	if d := faultinject.CanonicalDistance(s, want); d != 0 {
		t.Fatalf("post-recovery image at distance %d from canonical layout of %v", d, want)
	}
}

// replayDrainResurrection: a grow dies right after copying a key into
// the new array (SpDrainCopied) and before dropping the old copy, so the
// key is physically resident twice. A remove must chase both copies —
// deleting just one resurrects the key, PR 4's drain bug.
func replayDrainResurrection(t *testing.T) {
	ks := hihash.KeysHomingAt(displaceDomain, displaceGroups, 0, 3)
	s := hihash.NewDisplaceSet(displaceDomain, displaceGroups)
	for _, k := range ks {
		s.Insert(k)
	}
	kill(t, hihash.SpDrainCopied, 1, func() { s.Grow() })
	// Mid-crash the image spans both arrays: no single-geometry layout
	// compares, but every key must still be findable.
	if d := faultinject.CanonicalDistance(s, ks); d != -1 {
		t.Fatalf("mid-drain image unexpectedly comparable (distance %d)", d)
	}
	for _, k := range ks {
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false mid-drain", k)
		}
	}
	// The drain copies the home group's smallest key first; that is the
	// doubled one. Removing it must kill both copies.
	doubled := ks[0]
	s.Remove(doubled)
	if s.Contains(doubled) {
		t.Fatalf("Contains(%d) = true after Remove: the old-array copy resurrected it", doubled)
	}
	want := ks[1:]
	for _, k := range want {
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false after recovery", k)
		}
	}
	s.Grow()
	if got, canon := s.Snapshot(), hihash.CanonicalSetSnapshot(displaceDomain, s.NumGroups(), want); got != canon {
		t.Fatalf("memory not canonical after recovery:\n got:  %s\n want: %s", got, canon)
	}
}

// replayRunawayGrowth: a grow dies the instant the doubled array is
// published (SpGrowPublished), leaving the migration entirely to the
// survivors; an insert storm with repeated grows must still respect the
// capacity ceiling — PR 4's unbounded doubling bug.
func replayRunawayGrowth(t *testing.T) {
	ks := hihash.KeysHomingAt(displaceDomain, displaceGroups, 0, hihash.SlotsPerGroup+1)
	s := hihash.NewDisplaceSet(displaceDomain, displaceGroups)
	kill(t, hihash.SpGrowPublished, 1, func() {
		for _, k := range ks {
			s.Insert(k)
		}
		s.Grow()
	})
	ceiling := (maxGroupsFactor*displaceDomain + hihash.SlotsPerGroup - 1) / hihash.SlotsPerGroup
	var all []int
	for rep := 0; rep < 3; rep++ {
		for k := 1; k <= displaceDomain; k++ {
			s.Insert(k)
		}
		s.Grow()
		if g := s.NumGroups(); g > ceiling {
			t.Fatalf("runaway growth: %d groups > ceiling %d", g, ceiling)
		}
	}
	for k := 1; k <= displaceDomain; k++ {
		all = append(all, k)
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false after the storm", k)
		}
	}
	if got, canon := s.Snapshot(), hihash.CanonicalSetSnapshot(displaceDomain, s.NumGroups(), all); got != canon {
		t.Fatalf("memory not canonical after the storm:\n got:  %s\n want: %s", got, canon)
	}
}

// maxGroupsFactor mirrors the unexported resize ceiling (resize.go); the
// replay fails loudly if the two drift.
const maxGroupsFactor = 4

// replayParkedMarkSelfHelp: an eviction parks right after planting its
// mark (SpMarkSet); a remove frees a slot and a larger key claims it, so
// the marked key is no longer its group's maximum. An insert that
// outranks the group must cancel the obsolete relocation in place —
// naively helping it recursed forever (stack overflow), PR 4's self-help
// bug. The parked eviction then resumes and must finish cleanly.
func replayParkedMarkSelfHelp(t *testing.T) {
	const domain, G = 2000, 4
	ks := hihash.KeysHomingAt(domain, G, 0, 6)
	k0, k1, k2, k3, k4, k5 := ks[0], ks[1], ks[2], ks[3], ks[4], ks[5]
	s := hihash.NewDisplaceSet(domain, G)
	for _, k := range []int{k1, k2, k3, k4} {
		s.Insert(k)
	}
	// Insert(k0) outranks the full group: it marks the maximum k4 and —
	// parked there — leaves the mark dangling.
	in := faultinject.Install(faultinject.Plan{Point: hihash.SpMarkSet, Occurrence: 1, Action: faultinject.Park})
	defer in.Uninstall()
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		s.Insert(k0)
	}()
	select {
	case <-in.Fired():
	case <-time.After(20 * time.Second):
		t.Fatal("eviction mark never planted")
	}
	// A remove frees a slot, a larger key claims it: the parked mark is
	// now outranked.
	s.Remove(k1)
	s.Insert(k5)
	// The regression: this insert helps the parked relocation from its
	// own completion path; it must cancel in place, not recurse.
	helperDone := make(chan struct{})
	go func() {
		defer close(helperDone)
		s.Insert(k1)
	}()
	select {
	case <-helperDone:
	case <-time.After(20 * time.Second):
		t.Fatal("Insert wedged helping a parked, outranked mark")
	}
	in.Release()
	select {
	case <-victimDone:
	case <-time.After(20 * time.Second):
		t.Fatal("parked eviction never finished after release")
	}
	want := []int{k0, k1, k2, k3, k4, k5}
	for _, k := range want {
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false after the schedule", k)
		}
	}
	s.Grow()
	if got, canon := s.Snapshot(), hihash.CanonicalSetSnapshot(domain, s.NumGroups(), want); got != canon {
		t.Fatalf("memory not canonical after recovery:\n got:  %s\n want: %s", got, canon)
	}
}

// replayDrainMisread: a grow dies right after dropping the first key it
// copied out of old group 0 (SpDrainDropped), so that group now has a
// free slot and reads clean while a key displaced past it still waits
// in old group 1, not yet copied. A lookup's old-array scan stops at the
// clean group and its new-array scan cannot see the key either; the
// double collect then certified "absent" for a member — the stable-key
// misreads of the read-path churn test.
func replayDrainMisread(t *testing.T) {
	const domain, G = 2000, 4
	residents := append(hihash.KeysHomingAt(domain, G, 3, 4), hihash.KeysHomingAt(domain, G, 0, 4)...)
	// c homes at group 3 and outranks none of the residents, so groups
	// 3 and 0 are full before it and it lands in group 1.
	c := 0
	for _, k := range hihash.KeysHomingAt(domain, G, 3, 40) {
		if k > slices.Max(residents) {
			c = k
			break
		}
	}
	keys := append(residents, c)
	layout := hihash.DisplacedGroups(hihash.Params{T: domain, G: G, B: hihash.SlotsPerGroup}, keys)
	if !slices.Contains(layout[1], c) {
		t.Fatalf("key %d not displaced into group 1: layout %v", c, layout)
	}
	s := hihash.NewDisplaceSet(domain, G)
	for _, k := range keys {
		s.Insert(k)
	}
	kill(t, hihash.SpDrainDropped, 1, func() { s.Grow() })
	for _, k := range keys {
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false mid-drain, past a partly drained group", k)
		}
	}
	s.Grow()
	if got, canon := s.Snapshot(), hihash.CanonicalSetSnapshot(domain, s.NumGroups(), keys); got != canon {
		t.Fatalf("memory not canonical after recovery:\n got:  %s\n want: %s", got, canon)
	}
}
