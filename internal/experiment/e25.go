package experiment

import (
	"errors"
	"fmt"
	"time"

	"hiconc/internal/core"
	"hiconc/internal/faultinject"
	"hiconc/internal/hihash"
	"hiconc/internal/hirec"
	"hiconc/internal/obj"
	"hiconc/internal/trace"
)

// checkE25 closes the loop between the native stack and the checker:
// the flight recorder (internal/hirec) captures a real concurrent run
// and a faultinject crash schedule at the API layer, and the recorded
// histories are extracted and machine-checked for linearizability post
// hoc — the native analogue of what E6/E21/E22 prove on the simulated
// twins. A corrupted recording must be rejected before it reaches the
// checker.
func checkE25(*Config) error {
	defer hirec.Disable()

	// (a) A recorded concurrent stress run on the API-layer hash set,
	// sized to fit the exhaustive checker's 64-operation cap.
	const domain = 16
	recording := recordSetRun(1<<12, domain, 4, 8, func(pid, i int) core.Op {
		key := (pid*3+i)%domain + 1
		return [...]core.Op{ins(key), look(key), rem(key)}[i%3]
	})
	recs, err := checkRecorded(recording, domain)
	if err != nil {
		return fmt.Errorf("recorded stress run: %w", err)
	}
	steps := 0
	for _, ev := range recording.Events {
		if ev.Kind == hirec.KStep {
			steps++
		}
	}
	fmt.Printf("    recorded stress run: %d ops + %d protocol steps extracted, linearizable  PASS\n",
		len(recs), steps)

	// (b) A recorded faultinject crash schedule: fill a bucket group with
	// the four larger keys of its home run, then insert the smallest —
	// which outranks every resident (smaller keys claim earlier groups),
	// so it must mark one for relocation — and kill it at that mark-set
	// CAS. The victim dies between invocation and response, so extraction
	// must yield exactly one pending operation — which the checker may
	// linearize or drop — and the verdict must still hold.
	heavy := hihash.KeysHomingAt(domain, 2, 0, hihash.SlotsPerGroup+1)
	cs := obj.NewHashSetWithGroups(domain, 2)
	flight := hirec.Enable(1 << 12)
	for _, k := range heavy[1:] {
		cs.Insert(k)
	}
	fired := faultinject.RunKilled(faultinject.Plan{Point: hihash.SpMarkSet, Occurrence: 1}, func() { cs.Insert(heavy[0]) })
	hirec.Disable()
	crashRec := flight.Snapshot()
	if !fired {
		return errors.New("crash schedule: the displacing insert never reached mark-set")
	}
	crashRecs, err := checkRecorded(crashRec, domain)
	if err != nil {
		return fmt.Errorf("recorded crash schedule: %w", err)
	}
	pending := 0
	for _, r := range crashRecs {
		if !r.Completed {
			pending++
		}
	}
	if pending != 1 {
		fmt.Print(indent(trace.NativeTimeline(crashRec), "      "))
		return fmt.Errorf("crash schedule: %d pending operations extracted, want exactly 1 (the killed insert)", pending)
	}
	fmt.Println("    recorded crash schedule: kill at mark-set left 1 pending op, history linearizable  PASS")

	// (c) The negative control.
	err = corruptErr(crashRec)
	if err == nil {
		return errors.New("corrupted recording accepted by extraction")
	}
	fmt.Printf("    corrupted recording rejected  PASS (%v)\n", err)
	return nil
}

// e25Sites is the per-operation hot-site budget of the recorded stack:
// one OpStart, one OpEnd, and at most one protocol step per successful
// update on the obj.HashSet path. The E25 gate multiplies this by the
// measured cost of one disabled recording site.
const e25Sites = 3

// measureE25 measures the flight recorder itself and machine-checks what
// it captures: the unit price of a disabled recording site, a
// disabled-vs-recording A/B over an E21-shaped workload on the API-layer
// hash set (where the invoke/return sites live) with the machine-checked
// bound on the computed disabled-path overhead, then a recorded
// concurrent run whose extracted history must pass the linearizability
// checker, a corrupted recording that must be rejected, and the raw-dump
// identity check that recording stays outside the HI boundary.
func measureE25(c *Config) error {
	fmt.Println("=== E25: flight recorder — record native executions, machine-check them (internal/hirec)")
	const n, domain = 8, 8192

	// E25 measures its own enable/disable transitions, so a recorder
	// installed by -record is suspended for the duration and restored
	// after (its lanes would otherwise swallow this experiment's traffic).
	if suspended := hirec.Disable(); suspended != nil {
		defer hirec.EnableWith(suspended)
	}

	mixes := zipfSet(n, domain, 1.01, 0.1)
	runSet := func() time.Duration {
		return runPerKey(preload(objSet{obj.NewHashSet(domain)}, domain/4), n, c.Ops/n, mixes)
	}
	computed := c.observerAB("E25", "recording", e25Sites, n,
		func() {
			for i := 0; i < siteCalls; i++ {
				hirec.Step("bounded-update")
			}
		},
		func() { hirec.Enable(1 << 15) },
		func() { hirec.Disable() },
		abRun{"set", runSet})

	// Record a real concurrent run and machine-check it: six goroutines
	// over a small domain, sized to the exhaustive checker's 64-operation
	// cap.
	const checkDomain = 8
	recCheck := recordSetRun(1<<15, checkDomain, 6, 6, func(pid, i int) core.Op {
		key := (pid+i)%checkDomain + 1
		return [...]core.Op{ins(key), look(key), rem(key)}[i%3]
	})
	recs, checkErr := checkRecorded(recCheck, checkDomain)
	fmt.Printf("\n    recorded run: %d events, %d operations; linearizable: %v\n",
		len(recCheck.Events), len(recs), checkErr == nil)
	c.Rec.Record("E25", "check/ops", "count", float64(len(recs)))
	c.Rec.Record("E25", "check/linearizable", "bool", b2f(checkErr == nil))
	corruptRejected := corruptErr(recCheck) != nil
	fmt.Printf("    corrupted recording rejected by extraction: %v\n", corruptRejected)
	c.Rec.Record("E25", "check/corrupt-rejected", "bool", b2f(corruptRejected))

	gateErr := c.dumpBoundary("E25", "recording", func() { hirec.Enable(1 << 12) }, func() { hirec.Disable() })
	if checkErr != nil {
		gateErr = errors.Join(gateErr, fmt.Errorf("recorded native execution: %w", checkErr))
	}
	if !corruptRejected {
		gateErr = errors.Join(gateErr, errors.New("extraction accepted a corrupted recording"))
	}
	return errors.Join(gateErr, c.overheadGate(computed))
}

// renderE25 renders a real execution Figure-1-style: a displacing insert
// storm racing lookups on the native hash set, recorded by the flight
// recorder and drawn event by event with each goroutine's protocol
// steps. It is a live run, so the interleaving differs run to run.
func renderE25(*Config) error {
	fmt.Println("=== E25: native flight recording — displacing inserts ‖ lookups on obj.HashSet")
	const domain, groups = 8, 2
	// The keys homing at group 0: one more than the group holds, inserted
	// largest first so the final (smallest, highest-priority) insert must
	// mark a resident for relocation — the recorded protocol steps show
	// the displacement happening.
	heavy := hihash.KeysHomingAt(domain, groups, 0, hihash.SlotsPerGroup+1)
	s := obj.NewHashSetWithGroups(domain, groups)
	recording := recordRun(1<<10, 2, func(pid int) {
		if pid == 0 {
			for i := len(heavy) - 1; i >= 0; i-- {
				s.Insert(heavy[i])
			}
			return
		}
		for i := 0; i < 6; i++ {
			s.Contains(heavy[i%len(heavy)])
		}
	})
	fmt.Print(trace.NativeTimeline(recording))
	fmt.Println("legend: >>> invoke and <<< return bracket one operation (gN = recorder lane);")
	fmt.Println("        · step marks a labeled protocol CAS performed inside some operation")
	fmt.Println("(a live run: the interleaving and timestamps differ between invocations)")
	return nil
}
