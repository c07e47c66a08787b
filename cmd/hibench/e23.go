package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"hiconc/internal/faultinject"
	"hiconc/internal/hihash"
)

func runE23() error {
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
	for _, c := range cells {
		if c.Err != nil {
			recoveryErr = errors.Join(recoveryErr, fmt.Errorf("E23: %w", c.Err))
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
			c := cells[n]
			if c.Distance < 0 {
				mid++ // mid-drain image spans two arrays; geometries differ
			} else if c.Distance > maxDist {
				maxDist = c.Distance
			}
			recovery += c.Recovery
		}
		cells = cells[n:]
		perRecovery := float64(recovery.Nanoseconds()) / float64(n)
		fmt.Printf("%16s %8d %10d %10d %11.0f ns\n", sp, n, mid, maxDist, perRecovery)
		tag := "kill/" + sp.String()
		record("E23", tag+"/cells", "count", float64(n))
		record("E23", tag+"/mid-drain", "count", float64(mid))
		record("E23", tag+"/max-distance", "words", float64(maxDist))
		record("E23", tag+"/recovery", "ns/recovery", perRecovery)
	}
	fmt.Println("    (mid-drain cells are incomparable by geometry, not exposed: the")
	fmt.Println("     image spans two group arrays; every cell recovers to canonical)")

	// The observer's own cost: building one history-twin pair (ascending
	// vs descending insert order, both forcing displacement) and
	// byte-diffing their raw dumps — the unit price of the E23 twin check.
	pairs := *opsFlag / 2000
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
	record("E23", "twin/displace-pair", "ns/pair", float64(tTwin.Nanoseconds())/float64(pairs))
	record("E23", "twin/displace-mismatches", "count", float64(mismatches))
	return nil
}
