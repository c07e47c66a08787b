package experiment

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hiconc/internal/conc"
	"hiconc/internal/core"
	"hiconc/internal/faultinject"
	"hiconc/internal/hihash"
	"hiconc/internal/histats"
	"hiconc/internal/spec"
)

// checkE26 verifies the E26 read path of the displacing table end to end:
//
//	(a) a recorded lookup-heavy concurrent run — extracted by the
//	    flight recorder and machine-checked for linearizability, so the
//	    SWAR + bounded-retry lookups are checked inside real
//	    interleavings, not just in isolation;
//	(b) reads against a parked relocation mark — an updater killed at
//	    the mark-set CAS leaves a marked resident with no owner;
//	    concurrent readers must all terminate with the correct answer
//	    for every key (the marked resident is logically present, the
//	    dead insert's key absent), and recovery must restore canonical
//	    memory;
//	(c) twin raw dumps built under concurrent reader hammering — the
//	    E23 twin-identity adversary with readers present throughout,
//	    checking that the read path (including its helping fallback)
//	    stays outside the HI boundary.
func checkE26(c *Config) error {
	// (a) Recorded lookup-heavy run: three of every four operations are
	// lookups; the rest churn so the lookups race real updates. Sized to
	// fit the exhaustive checker's 64-operation cap.
	const domain = 16
	recording := recordSetRun(1<<12, domain, 4, 8, func(pid, i int) core.Op {
		key := (pid*5+i)%domain + 1
		switch {
		case i%4 == 0:
			return ins(key)
		case i%8 == 7:
			return rem(key)
		}
		return look(key)
	})
	recs, err := checkRecorded(recording, domain)
	if err != nil {
		return fmt.Errorf("recorded lookup-heavy run: %w", err)
	}
	lookups := 0
	for _, r := range recs {
		if r.Op.Name == spec.OpLookup {
			lookups++
		}
	}
	fmt.Printf("    recorded lookup-heavy run: %d ops (%d lookups), linearizable  PASS\n",
		len(recs), lookups)

	// (b) Park-at-mark readers: fill one bucket group with the four
	// larger keys of its home run, then insert the smallest — which
	// outranks every resident and must mark one for relocation — and
	// kill it at the mark-set CAS. The crash leaves a parked mark with
	// no owner. Readers must terminate (a parked mark is stable memory,
	// so validation succeeds) and answer correctly for every key: the
	// marked resident is logically present, the dead insert's key was
	// never placed.
	heavy := hihash.KeysHomingAt(domain, 2, 0, hihash.SlotsPerGroup+1)
	var ops []faultinject.Op
	for _, k := range heavy[1:] {
		ops = append(ops, faultinject.Op{Verb: faultinject.Insert, Key: k})
	}
	parked := faultinject.NewScript(ops...)
	ps := hihash.NewDisplaceSet(domain, 2)
	if !faultinject.RunKilled(faultinject.Plan{Point: hihash.SpMarkSet, Occurrence: 1}, func() {
		parked.Run(ps)
		ps.Insert(heavy[0])
	}) {
		return errors.New("park-at-mark: the displacing insert never reached mark-set")
	}
	expected := map[int]bool{}
	for _, k := range parked.Final {
		expected[k] = true
	}
	const parkReaders, parkSweeps = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, parkReaders)
	for g := 0; g < parkReaders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sweep := 0; sweep < parkSweeps; sweep++ {
				for k := 1; k <= domain; k++ {
					if got := ps.Contains(k); got != expected[k] {
						select {
						case errs <- fmt.Errorf("park-at-mark: Contains(%d) = %v, want %v", k, got, expected[k]):
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	// Recovery: settling heavy[1:] — the marked resident's own Insert
	// helps its relocation complete — must leave no trace of the dead
	// insert's key and restore canonical memory exactly (the Kill
	// matrix's rule).
	if _, err := parked.Recover(ps); err != nil {
		return fmt.Errorf("park-at-mark: %w", err)
	}
	fmt.Printf("    park-at-mark: %d readers x %d sweeps all correct against a parked mark, recovery canonical  PASS\n",
		parkReaders, parkSweeps)

	// (c) Twin dumps under readers: the E23 displacing twin adversary
	// with reader goroutines hammering Contains throughout each build.
	// Reads — including any slow-path helping they perform — must leave
	// the final raw dumps byte-identical and canonical.
	const dDomain, dGroups = 8, 2
	dheavy := hihash.KeysHomingAt(dDomain, dGroups, 0, hihash.SlotsPerGroup+1)
	trials := c.depth(200, 800)
	newSet := func() *hihash.Set { return hihash.NewDisplaceSet(dDomain, dGroups) }
	if err := twins("twins under readers", trials, 6, dheavy, newSet, buildWithReaders); err != nil {
		return err
	}
	fmt.Printf("    twins under readers: %4d history pairs with concurrent lookups, dumps byte-identical and canonical  PASS\n",
		trials)
	return nil
}

// buildWithReaders is faultinject.BuildHistory with reader goroutines
// hammering Contains over the whole domain for the duration of the
// build.
func buildWithReaders(s *hihash.Set, target []int, seed int64) {
	domain := s.Domain()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					s.Contains(rng.Intn(domain) + 1)
				}
			}
		}(seed*10 + int64(g))
	}
	faultinject.BuildHistory(s, target, seed)
	close(stop)
	wg.Wait()
}

// measureE26 measures the E26 read path and machine-checks its contract:
// a read-heavy Zipf sweep of the SWAR + bounded-retry lookups against a
// sync.Map baseline, the retry and probe distributions of a churny run
// via histats, and two gates — observed retries never exceed the
// fast-path budget, and a displacing lookup at quiescence allocates
// nothing.
func measureE26(c *Config) error {
	fmt.Println("=== E26: fast-path reads — SWAR probes, bounded retries, an allocation-free hot path")
	const domain, zipf = 16384, 1.2
	const g0 = domain / 8
	readFracs := []float64{0.5, 0.9, 0.99}
	procs := []int{1, 2, 4, 8, 16}

	newDisp := func() conc.Applier { return preload(hihash.NewDisplaceSet(domain, g0), domain/4) }
	syncMap := func() conc.Applier { return preload(conc.NewSyncMapSet(), domain/4) }

	fmt.Printf("\n    displacing table, Zipf s=%.1f read sweep (ns/op; vs sync.Map is\n", zipf)
	fmt.Println("    the displacing table's time over sync.Map's in the same run):")
	fmt.Printf("%8s %6s %14s %12s %12s\n", "reads", "procs", "swar+bounded", "sync.Map", "vs sync.Map")
	for _, rf := range readFracs {
		for _, n := range procs {
			mixes := zipfSet(n, domain, zipf, rf)
			tag := fmt.Sprintf("read=%.2f/n=%d", rf, n)
			tNew := c.timePerKey("E26", tag+"/swar-bounded", newDisp(), n, mixes)
			tSM := c.timePerKey("E26", tag+"/syncmap", syncMap(), n, mixes)
			ratio := float64(tNew.Nanoseconds()) / float64(tSM.Nanoseconds())
			if rf == 0.99 && n == 8 {
				c.Rec.Record("E26", "read=0.99/n=8/vs-syncmap", "ratio", ratio)
			}
			fmt.Printf("%7.0f%% %6d %14s %12s %11.2fx\n", 100*rf, n,
				perOp(tNew, c.Ops), perOp(tSM, c.Ops), ratio)
		}
	}

	// Retry and probe distributions, gathered with metrics enabled on an
	// untimed run (enabling histats during the timed sweep would distort
	// it). The update-heavy mix is the interesting one here: retries only
	// happen when a writer races the probe run a reader is validating.
	const distN = 8
	r := histats.Enable()
	distMixes := zipfSet(distN, domain, zipf, 0.5)
	runPerKey(newDisp(), distN, c.Ops/distN, distMixes)
	snap := r.Snapshot()
	histats.Disable()
	retries := snap.Counters[histats.CtrLookupRetry]
	helps := snap.Counters[histats.CtrLookupHelp]
	rh := &snap.Hists[histats.HistLookupRetry]
	pl := &snap.Hists[histats.HistProbeLen]
	fmt.Printf("\n    read-path interference at 50%% reads, %d goroutines, %d ops:\n", distN, c.Ops)
	fmt.Printf("      validation retries: %d, help fallbacks: %d\n", retries, helps)
	fmt.Printf("      lookups that retried at all: %d, their retries p50/p99/max: %d/%d/%d (budget %d)\n",
		rh.Count, rh.Quantile(0.50), rh.Quantile(0.99), rh.Max(), hihash.LookupRetryLimit())
	fmt.Printf("      insert probe length p50/p99/max: %d/%d/%d\n",
		pl.Quantile(0.50), pl.Quantile(0.99), pl.Max())
	c.Rec.Record("E26", "dist/lookup-retries", "count", float64(retries))
	c.Rec.Record("E26", "dist/help-fallbacks", "count", float64(helps))
	c.Rec.Record("E26", "dist/retry-max", "count", float64(rh.Max()))

	// The allocation gate: a displacing lookup at quiescence — over a
	// table that grew online and holds displaced probe runs — must not
	// allocate. The collect record lives in fixed stack buffers
	// (probeScan); a regression here is a silent hot-path heap record.
	as := preload(hihash.NewDisplaceSet(domain, 16), domain/4)
	allocs := testing.AllocsPerRun(1000, func() {
		as.Contains(1)      // present, hot
		as.Contains(domain) // absent
	})
	fmt.Printf("\n    allocations per displacing lookup pair at quiescence: %.1f\n", allocs)
	c.Rec.Record("E26", "gate/lookup-allocs", "count", allocs)

	var gateErr error
	if max, lim := rh.Max(), uint64(hihash.LookupRetryLimit()); max > lim {
		gateErr = errors.Join(gateErr, fmt.Errorf("observed lookup retries %d exceed the fast-path budget %d", max, lim))
	}
	if allocs != 0 {
		gateErr = errors.Join(gateErr, fmt.Errorf("displacing lookup allocates %.1f per op pair, want 0", allocs))
	}
	if gateErr == nil {
		fmt.Printf("    gate: retries within budget %d, zero-alloc lookups\n", hihash.LookupRetryLimit())
	}
	return gateErr
}
