package faultinject_test

import (
	"bytes"
	"math/rand"
	"testing"

	"hiconc/internal/faultinject"
	"hiconc/internal/hihash"
)

// Dump-indistinguishability twins: two tables driven to the same
// abstract state by different histories must be indistinguishable to an
// adversary reading raw memory. For the bounded (perfect-HI) table the
// dumps must be byte-identical at every trial; for the displacing table
// at quiescence.
//
// Geometries are chosen so the workload cannot change the geometry
// mid-history (which would be a capacity side channel, not an HI
// failure): boundedDomain/boundedGroups puts at most 3 possible keys in
// any home group, so with one decoy in flight no insert ever sees a full
// group; displaceDomain/displaceGroups overloads one group (5 possible
// keys, 4 slots) to force real displacement while 6 target keys + 1
// decoy stay below the 8-slot total that could trigger a grow.

const (
	boundedDomain, boundedGroups   = 16, 8
	displaceDomain, displaceGroups = 8, 2
)

// TestBoundedTwinDumpsIdentical: the perfect-HI bounded table must dump
// byte-identically for every pair of histories of the same set, and the
// dump must equal the canonical packed words.
func TestBoundedTwinDumpsIdentical(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		target := faultinject.RandomSet(rng, boundedDomain, boundedDomain)
		mk := func() *hihash.Set { return hihash.NewSet(boundedDomain, boundedGroups) }
		a, b := mk(), mk()
		faultinject.BuildHistory(a, target, int64(1000+trial))
		faultinject.BuildHistory(b, target, int64(2000+trial))
		da, db := a.RawDump(), b.RawDump()
		if !bytes.Equal(da, db) {
			t.Fatalf("trial %d: same state %v, different raw dumps:\n a: %x\n b: %x", trial, target, da, db)
		}
		s := mk()
		faultinject.BuildHistory(s, target, int64(3000+trial))
		if d := faultinject.CanonicalDistance(s, target); d != 0 {
			t.Fatalf("trial %d: state %v: raw words at distance %d from canonical", trial, target, d)
		}
	}
}

// TestDisplaceTwinDumpsIdentical: the displacing table's quiescent dumps
// must also be byte-identical and canonical — including for states that
// overflow a home group and force cross-group displacement.
func TestDisplaceTwinDumpsIdentical(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 60
	}
	// Keys homed at group 0 under the shared mixer; an overloaded target
	// containing all of them forces cross-group displacement (5 keys, 4
	// slots).
	heavy := hihash.KeysHomingAt(displaceDomain, displaceGroups, 0, hihash.SlotsPerGroup+1)
	displaced := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		target := faultinject.RandomSet(rng, displaceDomain, 6)
		if trial%3 == 0 {
			target = heavy
		}
		a, b := newDisplaceSet(), newDisplaceSet()
		faultinject.BuildHistory(a, target, int64(1000+trial))
		faultinject.BuildHistory(b, target, int64(2000+trial))
		da, db := a.RawDump(), b.RawDump()
		if !bytes.Equal(da, db) {
			t.Fatalf("trial %d: same state %v, different raw dumps:\n a: %x\n b: %x", trial, target, da, db)
		}
		s := newDisplaceSet()
		faultinject.BuildHistory(s, target, int64(3000+trial))
		if g := s.NumGroups(); g != displaceGroups {
			t.Fatalf("trial %d: table grew to %d groups; the workload must not trigger growth", trial, g)
		}
		if d := faultinject.CanonicalDistance(s, target); d != 0 {
			t.Fatalf("trial %d: state %v: raw words at distance %d from canonical", trial, target, d)
		}
		layout := hihash.DisplacedGroups(hihash.Params{T: displaceDomain, G: displaceGroups, B: hihash.SlotsPerGroup}, target)
	scan:
		for g, keys := range layout {
			for _, k := range keys {
				if hihash.GroupOf(k, displaceGroups) != g {
					displaced++
					break scan
				}
			}
		}
	}
	if displaced == 0 {
		t.Fatal("no trial exercised displacement; geometry too roomy")
	}
}

// TestWordDistance pins the differ's edge cases.
func TestWordDistance(t *testing.T) {
	if d := faultinject.WordDistance([]uint64{1, 2, 3}, []uint64{1, 9, 3}); d != 1 {
		t.Fatalf("distance = %d, want 1", d)
	}
	if d := faultinject.WordDistance([]uint64{1}, []uint64{1, 2}); d != -1 {
		t.Fatalf("mismatched lengths: distance = %d, want -1", d)
	}
	if d := faultinject.WordDistance(nil, nil); d != 0 {
		t.Fatalf("empty: distance = %d, want 0", d)
	}
}
