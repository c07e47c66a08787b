package faultinject_test

import (
	"testing"

	"hiconc/internal/faultinject"
	"hiconc/internal/hihash"
)

// The native crash matrix: for every steppoint and every occurrence of
// it that a fixed workload reaches, kill the worker goroutine right
// after that protocol CAS, photograph raw memory, and then let fresh
// operations recover. Two properties are checked at every cell:
//
//  1. Exposure: at crash points where the geometry is stable (not
//     mid-drain), the raw image is within MaxCrashDistance words of the
//     canonical layout of SOME abstract state the workload could have
//     been in — the observed counterpart of the distance bound measured
//     in E21.
//  2. Recovery: after the survivors re-settle membership and force a
//     grow (whose drain supersedes parked marks and drops stale
//     flags), memory must be exactly the canonical layout again.

func newDisplaceSet() *hihash.Set { return hihash.NewDisplaceSet(displaceDomain, displaceGroups) }

// TestCrashMatrixDisplace sweeps Kill plans over every (steppoint,
// occurrence) cell the displacing workload reaches.
func TestCrashMatrixDisplace(t *testing.T) {
	cells := faultinject.KillMatrix(newDisplaceSet, faultinject.OverloadScript(displaceDomain, displaceGroups))
	maxDist, incomparable := 0, 0
	for _, c := range cells {
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		switch {
		case c.Distance < 0:
			incomparable++ // mid-drain image spans two arrays
		case c.Distance > faultinject.MaxCrashDistance:
			t.Errorf("%s: crash image at distance %d > %d from every reachable canonical layout", c.Plan, c.Distance, faultinject.MaxCrashDistance)
		case c.Distance > maxDist:
			maxDist = c.Distance
		}
	}
	t.Logf("crash matrix: %d cells, %d mid-drain (incomparable), max stable-geometry distance %d", len(cells), incomparable, maxDist)
	if len(cells) < int(hihash.NumSteppoints) {
		t.Fatalf("only %d crash cells reached; the workload misses whole steppoints", len(cells))
	}
}

// TestCrashMatrixBounded kills the bounded table's single-CAS updates at
// every occurrence. Each update is one atomic word swap, so every crash
// image must be EXACTLY canonical for some prefix state (perfect HI has
// no window at all — Proposition 6 with distance 0 at the crash point).
func TestCrashMatrixBounded(t *testing.T) {
	var ops []faultinject.Op
	for _, k := range []int{1, 2, 3, 5, 7, 11, 13} {
		ops = append(ops, faultinject.Op{Verb: faultinject.Insert, Key: k})
	}
	for _, k := range []int{2, 7} {
		ops = append(ops, faultinject.Op{Verb: faultinject.Remove, Key: k})
	}
	newSet := func() *hihash.Set { return hihash.NewSet(boundedDomain, boundedGroups) }
	cells := faultinject.KillMatrix(newSet, faultinject.NewScript(ops...))
	updates := 0
	for _, c := range cells {
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if c.Plan.Point == hihash.SpBoundedUpdate {
			updates++
		}
		if c.Distance != 0 {
			t.Fatalf("bounded crash at %s: distance %d, want 0 (perfect HI leaves no window)", c.Plan, c.Distance)
		}
	}
	if updates < len(ops) {
		t.Fatalf("only %d bounded-update cells for %d updates; expected one per update", updates, len(ops))
	}
}

// TestCrashCellCanFail proves the driver's verdicts are not vacuous: a
// script that claims a final set omitting a key it inserts must fail
// recovery at every cell, and a plan past the last occurrence the
// script reaches must report that it never fired.
func TestCrashCellCanFail(t *testing.T) {
	sc := faultinject.OverloadScript(displaceDomain, displaceGroups)
	sc.Final = sc.Final[1:]
	cells := faultinject.KillMatrix(newDisplaceSet, sc)
	if len(cells) == 0 {
		t.Fatal("the overload script reached no crash cell")
	}
	for _, c := range cells {
		if c.Err == nil {
			t.Errorf("%s: recovery passed against a final set missing a key", c.Plan)
		}
	}
	unreached := faultinject.Plan{Point: hihash.SpGrowPublished, Occurrence: 100}
	if c := faultinject.CrashCell(newDisplaceSet, faultinject.OverloadScript(displaceDomain, displaceGroups), unreached); c.Fired {
		t.Fatalf("%s fired, but the script grows only once", unreached)
	}
}
