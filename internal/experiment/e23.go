package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"hiconc/internal/core"
	"hiconc/internal/faultinject"
	"hiconc/internal/hicheck"
	"hiconc/internal/hihash"
)

// checkE23 makes the adversary of the HI definitions executable against
// the native tables. Three sub-experiments:
//
//	(a) twin raw dumps — two tables driven to the same abstract set by
//	    different histories, captured as live word arrays through
//	    unsafe, must be byte-identical and equal to the canonical
//	    packed layout;
//	(b) enumerated crash schedules on the simulated twins — a process
//	    killed after every possible number of primitive steps, with
//	    survivors running to completion, must always leave a canonical
//	    memory of a linearizable state;
//	(c) the native Kill matrix — a goroutine killed at every labeled
//	    protocol steppoint; the exposed image must lie within 5 words
//	    of a reachable canonical layout (the observed analogue of E21's
//	    distance bound), and recovery must restore canonical memory
//	    exactly.
func checkE23(c *Config) error {
	const (
		bDomain, bGroups = 16, 8
		dDomain, dGroups = 8, 2
	)

	pairs := c.depth(1000, 4000)
	err := twins("bounded twins", pairs, bDomain, nil,
		func() *hihash.Set { return hihash.NewSet(bDomain, bGroups) }, faultinject.BuildHistory)
	if err != nil {
		return err
	}
	fmt.Printf("    bounded twins:    %4d history pairs, raw dumps byte-identical and canonical\n", pairs)

	// A third of the displacing pairs build the overloaded set whose home
	// group overflows, so they exercise real cross-group displacement.
	overload := faultinject.OverloadScript(dDomain, dGroups)
	newSet := func() *hihash.Set { return hihash.NewDisplaceSet(dDomain, dGroups) }
	dPairs := c.depth(600, 2400)
	if err := twins("displacing twins", dPairs, 6, overload.Final, newSet, faultinject.BuildHistory); err != nil {
		return err
	}
	fmt.Printf("    displacing twins: %4d history pairs (1/3 with forced displacement), dumps canonical\n", dPairs)

	p := hihash.Params{T: 3, G: 2, B: 1}
	hb := hihash.NewSimHarness(p, 2, hihash.VariantCanonical)
	cb, err := hicheck.BuildCanon(hb, 3, 400)
	if err != nil {
		return err
	}
	nb, err := hicheck.CheckCrashRecovery(cb, hb, [][][]core.Op{
		{{ins(1), ins(2)}, {rem(1), look(2)}},
		{{ins(2), rem(2)}, {ins(1)}},
	}, 0, 2000)
	if err != nil {
		return fmt.Errorf("bounded crash schedules: %w", err)
	}
	hd := hihash.NewDisplaceHarness(p, 2, hihash.DisplaceCanonical)
	cd, err := hicheck.BuildCanon(hd, 3, 4000)
	if err != nil {
		return err
	}
	nd, err := hicheck.CheckCrashRecovery(cd, hd, [][][]core.Op{
		{{ins(3), ins(1)}, {grow, rem(2)}},
		{{ins(3), ins(1), rem(1)}, {grow, rem(2)}},
		{{ins(2), grow}, {grow, rem(1)}},
	}, 0, 4000)
	if err != nil {
		return fmt.Errorf("displacing crash schedules: %w", err)
	}
	fmt.Printf("    sim crash schedules: %d bounded + %d displacing, every recovery canonical and linearizable\n", nb, nd)

	cells := faultinject.KillMatrix(newSet, overload)
	mid, maxDist := 0, 0
	for _, cell := range cells {
		if cell.Err != nil {
			return cell.Err
		}
		switch {
		case cell.Distance < 0:
			mid++
		case cell.Distance > faultinject.MaxCrashDistance:
			return fmt.Errorf("crash at %s: image at distance %d > %d from every reachable canonical layout", cell.Plan, cell.Distance, faultinject.MaxCrashDistance)
		case cell.Distance > maxDist:
			maxDist = cell.Distance
		}
	}
	if len(cells) < int(hihash.NumSteppoints) {
		return fmt.Errorf("only %d crash cells reached; the workload misses whole steppoints", len(cells))
	}
	fmt.Printf("    native Kill matrix: %d cells (%d mid-drain), max stable-geometry distance %d <= %d\n",
		len(cells), mid, maxDist, faultinject.MaxCrashDistance)
	return nil
}

// measureE23 runs the Kill matrix of internal/faultinject as a
// measurement — per-steppoint crash exposure (word distance of the raw
// image from the nearest reachable canonical layout) and the cost of
// recovering a crashed table to canonical — plus the observer's own
// cost of building and byte-diffing history twins.
func measureE23(c *Config) error {
	fmt.Println("=== E23: adversarial observers — crash exposure and recovery cost")
	const domain, groups = 8, 2
	script := faultinject.OverloadScript(domain, groups)

	// The Kill matrix as a measurement: per steppoint, how many crash
	// cells the workload reaches, how far the worst stable-geometry image
	// strays from canonical, and what repairing the wreckage costs.
	fmt.Println("\n    Kill matrix (displacing set; dist = 64-bit words from the nearest")
	fmt.Println("    reachable canonical layout; recovery = settle keys + grow):")
	fmt.Printf("%16s %8s %10s %10s %14s\n", "steppoint", "cells", "mid-drain", "max dist", "recovery")
	newSet := func() *hihash.Set { return hihash.NewDisplaceSet(domain, groups) }
	cells := faultinject.KillMatrix(newSet, script)
	var recoveryErr error
	for _, cell := range cells {
		if cell.Err != nil {
			recoveryErr = errors.Join(recoveryErr, cell.Err)
		}
	}
	if recoveryErr != nil {
		return recoveryErr
	}
	for len(cells) > 0 {
		sp := cells[0].Plan.Point
		n, mid, maxDist := 0, 0, 0
		var recovery time.Duration
		for ; n < len(cells) && cells[n].Plan.Point == sp; n++ {
			cell := cells[n]
			if cell.Distance < 0 {
				mid++ // mid-drain image spans two arrays; geometries differ
			} else if cell.Distance > maxDist {
				maxDist = cell.Distance
			}
			recovery += cell.Recovery
		}
		cells = cells[n:]
		perRecovery := float64(recovery.Nanoseconds()) / float64(n)
		fmt.Printf("%16s %8d %10d %10d %11.0f ns\n", sp, n, mid, maxDist, perRecovery)
		tag := "kill/" + sp.String()
		c.Rec.Record("E23", tag+"/cells", "count", float64(n))
		c.Rec.Record("E23", tag+"/mid-drain", "count", float64(mid))
		c.Rec.Record("E23", tag+"/max-distance", "words", float64(maxDist))
		c.Rec.Record("E23", tag+"/recovery", "ns/recovery", perRecovery)
	}
	fmt.Println("    (mid-drain cells are incomparable by geometry, not exposed: the")
	fmt.Println("     image spans two group arrays; every cell recovers to canonical)")

	// The observer's own cost: building one history-twin pair (ascending
	// vs descending insert order, both forcing displacement) and
	// byte-diffing their raw dumps — the unit price of the E23 twin check.
	pairs := c.Ops / 2000
	if pairs < 50 {
		pairs = 50
	}
	mismatches := 0
	tTwin := timeIt(func() {
		for i := 0; i < pairs; i++ {
			a := hihash.NewDisplaceSet(domain, groups)
			b := hihash.NewDisplaceSet(domain, groups)
			for _, k := range script.Final {
				a.Insert(k)
			}
			for j := len(script.Final) - 1; j >= 0; j-- {
				b.Insert(script.Final[j])
			}
			if !bytes.Equal(a.RawDump(), b.RawDump()) {
				mismatches++
			}
		}
	})
	fmt.Printf("\n    twin check (build 2 displacing tables + raw-dump + byte-diff): %s/pair, %d pairs, %d mismatches\n",
		perOp(tTwin, pairs), pairs, mismatches)
	c.Rec.Record("E23", "twin/displace-pair", "ns/pair", float64(tTwin.Nanoseconds())/float64(pairs))
	c.Rec.Record("E23", "twin/displace-mismatches", "count", float64(mismatches))
	return nil
}
