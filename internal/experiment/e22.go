package experiment

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hiconc/internal/conc"
	"hiconc/internal/core"
	"hiconc/internal/hicheck"
	"hiconc/internal/hihash"
	"hiconc/internal/shard"
	"hiconc/internal/sim"
	"hiconc/internal/spec"
)

// checkE22 verifies the unbounded HICHT: cross-group Robin Hood
// displacement with helped relocations, and an online resize. A
// relocation spans two group words, so adjacent canonical layouts
// differ in >= 2 base objects and Proposition 6 forbids perfect HI —
// the checker first exhibits that witness, then verifies the class the
// HICHT paper actually proves: state-quiescent HI plus linearizability,
// over displacement races and schedules that cross a resize.
func checkE22(c *Config) error {
	p := hihash.Params{T: 3, G: 2, B: 1}
	h := hihash.NewDisplaceHarness(p, 2, hihash.DisplaceCanonical)
	canon, err := hicheck.BuildCanon(h, 3, 4000)
	if err != nil {
		return err
	}
	if d := canon.MaxCanonDistance(); d < 2 {
		return fmt.Errorf("canonical distance %d; displacement should force >= 2", d)
	} else {
		fmt.Printf("    canonical distance %d > 1: perfect HI impossible (Proposition 6)\n", d)
	}
	refute := [][][]core.Op{{{ins(1)}, {ins(2)}}, {{ins(1), rem(1)}, {ins(2)}}}
	if v := hicheck.FindViolation(canon, h, refute, hicheck.Perfect, 22, 400000); v == nil {
		return errors.New("no perfect-HI witness found")
	} else {
		fmt.Printf("    perfect HI            REFUTED(expected): %v\n", v)
	}

	scripts := [][][]core.Op{
		{{ins(1)}, {ins(2)}},
		{{ins(1), rem(1)}, {ins(2)}},
		{{ins(1), look(2)}, {ins(2)}},
	}
	resizeScripts := [][][]core.Op{
		{{grow}, {ins(1)}},
		{{ins(1), grow}, {ins(2)}},
		{{ins(1), grow}, {rem(1)}},
		{{grow, look(1)}, {ins(1)}},
	}
	ms := c.depth(18, 26)
	n1, err := hicheck.CheckExhaustive(canon, h, scripts, hicheck.StateQuiescent, ms, 400000, true)
	if err != nil && !errors.Is(err, sim.ErrBudget) {
		return fmt.Errorf("%s: %w", h.Name, err)
	}
	n2, err := hicheck.CheckExhaustive(canon, h, resizeScripts, hicheck.StateQuiescent, c.depth(20, 28), 400000, true)
	if err != nil && !errors.Is(err, sim.ErrBudget) {
		return fmt.Errorf("%s resize: %w", h.Name, err)
	}
	fmt.Printf("    state-quiescent HI + linearizability PASS (%d displacement + %d mid-resize interleavings)\n", n1, n2)
	if err := hicheck.CheckRandom(canon, h, scripts, hicheck.StateQuiescent, c.depth(120, 500), 31, 5000, true); err != nil {
		return fmt.Errorf("%s fuzz: %w", h.Name, err)
	}
	if err := hicheck.CheckRandom(canon, h, resizeScripts, hicheck.StateQuiescent, c.depth(120, 500), 97, 6000, true); err != nil {
		return fmt.Errorf("%s resize fuzz: %w", h.Name, err)
	}
	fmt.Println("    random-schedule fuzz (including resize crossings)   PASS")

	// Wide groups (B=2): a group can hold a marked key next to a larger
	// unmarked one — the state class where relocation helping is
	// subtlest (see whitebox_test.go's parked-mark regression) and which
	// B=1 groups cannot express. Keys 2, 4, 5 share home group 0 here.
	pw := hihash.Params{T: 5, G: 2, B: 2}
	hw := hihash.NewDisplaceHarness(pw, 2, hihash.DisplaceCanonical)
	cw, err := hicheck.BuildCanon(hw, 3, 6000)
	if err != nil {
		return fmt.Errorf("%s: %w", hw.Name, err)
	}
	wide := [][][]core.Op{
		{{ins(2), ins(4)}, {ins(5)}},
		{{ins(4), ins(5)}, {ins(2), rem(4)}},
	}
	nw, err := hicheck.CheckExhaustive(cw, hw, wide, hicheck.StateQuiescent, c.depth(18, 24), 300000, true)
	if err != nil && !errors.Is(err, sim.ErrBudget) {
		return fmt.Errorf("%s: %w", hw.Name, err)
	}
	if err := hicheck.CheckRandom(cw, hw, wide, hicheck.StateQuiescent, c.depth(80, 400), 53, 4000, true); err != nil {
		return fmt.Errorf("%s fuzz: %w", hw.Name, err)
	}
	fmt.Printf("    wide groups (B=2, marked-next-to-larger states)     PASS (%d interleavings + fuzz)\n", nw)

	// The no-backward-shift ablation must be refuted sequentially: the
	// slot a key ends in would depend on the deletion history.
	ha := hihash.NewDisplaceHarness(p, 2, hihash.DisplaceNoShift)
	_, err = hicheck.BuildCanon(ha, 3, 4000)
	var v *hicheck.SeqHIViolation
	if !errors.As(err, &v) {
		return fmt.Errorf("no-shift ablation: expected a sequential HI violation, got %v", err)
	}
	fmt.Printf("    no-backward-shift ablation REFUTED(expected): %v\n", v)
	return nil
}

// measureE22 times the unbounded HICHT: a load-factor sweep past 1 with
// zero RspFull, and an insert storm that grows the table mid-flight.
func measureE22(c *Config) error {
	fmt.Println("=== E22: the unbounded HICHT — displacement and online resize")
	const n, domain = 8, 8192

	// Load-factor sweep: the displacing table starts at capacity
	// domain/2 and is preloaded to lf times that capacity; past lf = 1
	// the bounded table of E21 would reject, the displacing one spills
	// and grows. The bounded column is preloaded to the same load for a
	// like-for-like row (its rejects are counted, not hidden — above
	// load 1 part of its preload and workload is silently refused).
	fmt.Println("\n    load-factor sweep (10% lookups, Zipf s=1.01, 8 goroutines; ns/op):")
	fmt.Printf("%8s %16s %10s %10s %14s %18s %12s\n",
		"load", "hihash-displace", "rejects", "groups", "bounded", "sharded-universal", "sync.Map")
	g0 := domain / 8 // initial capacity domain/2
	for _, lf := range []float64{0.5, 0.75, 1.0, 1.25, 1.5} {
		load := int(lf * float64(g0) * hihash.SlotsPerGroup)
		mixes := zipfSet(n, domain, 1.01, 0.1)
		tag := fmt.Sprintf("set/load=%.2f", lf)

		disp := preload(&fullCounter{Applier: hihash.NewDisplaceSet(domain, g0)}, load)
		dispCell := c.measurePerKey("E22", tag+"/hihash-displace", disp, n, mixes)
		c.Rec.Record("E22", tag+"/hihash-displace/rspfull", "count", float64(disp.fulls))
		c.Rec.Record("E22", tag+"/hihash-displace/groups", "groups", float64(disp.Applier.(*hihash.Set).NumGroups()))

		bounded := preload(&fullCounter{Applier: hihash.NewSet(domain, g0)}, load)
		boundedCell := c.measurePerKey("E22", tag+"/hihash-bounded", bounded, n, mixes)
		c.Rec.Record("E22", tag+"/hihash-bounded/rspfull", "count", float64(bounded.fulls))

		uniCell := c.measurePerKey("E22", tag+"/sharded-universal/S=16", preload(shard.NewSet(n, domain, 16), load), n, mixes)
		smCell := c.measurePerKey("E22", tag+"/syncmap", preload(conc.NewSyncMapSet(), load), n, mixes)

		fmt.Printf("%8.2f %16s %10d %10d %14s %18s %12s\n",
			lf, dispCell, disp.fulls, disp.Applier.(*hihash.Set).NumGroups(),
			boundedCell, uniCell, smCell)
	}
	fmt.Println("    (rejects must be 0 for hihash-displace at every load factor; the")
	fmt.Println("     groups column shows the online resize absorbing load > 1)")

	// Resize under load: fill the whole domain from 8 goroutines into a
	// table that starts 64x too small, so the migration machinery runs
	// about six times mid-storm; the pre-sized table is the no-resize
	// ceiling.
	fmt.Println("\n    resize under load (insert storm of the full domain, 8 goroutines; ns/op):")
	fmt.Printf("%22s %16s %18s %12s\n", "hihash-displace(G=16)", "pre-sized", "sharded-universal", "sync.Map")
	storm := func(a conc.Applier) time.Duration {
		per := domain / n
		return timeIt(func() {
			var wg sync.WaitGroup
			for pid := 0; pid < n; pid++ {
				wg.Add(1)
				go func(pid int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						key := pid*per + i + 1
						a.Apply(pid, core.Op{Name: spec.OpInsert, Arg: key})
						if i%10 == 9 {
							a.Apply(pid, core.Op{Name: spec.OpLookup, Arg: key})
						}
					}
				}(pid)
			}
			wg.Wait()
		})
	}
	stormOps := domain + domain/10
	growing := &fullCounter{Applier: hihash.NewDisplaceSet(domain, 16)}
	tGrow := storm(growing)
	c.Rec.RecordPerOp("E22", "storm/hihash-displace/G0=16", tGrow, stormOps)
	c.Rec.Record("E22", "storm/hihash-displace/rspfull", "count", float64(growing.fulls))
	c.Rec.Record("E22", "storm/hihash-displace/groups", "groups", float64(growing.Applier.(*hihash.Set).NumGroups()))
	tPre := storm(hihash.NewDisplaceSet(domain, domain/2))
	c.Rec.RecordPerOp("E22", "storm/hihash-presized", tPre, stormOps)
	tUni := storm(shard.NewSet(n, domain, 16))
	c.Rec.RecordPerOp("E22", "storm/sharded-universal/S=16", tUni, stormOps)
	tSM := storm(conc.NewSyncMapSet())
	c.Rec.RecordPerOp("E22", "storm/syncmap", tSM, stormOps)
	fmt.Printf("%22s %16s %18s %12s\n",
		perOp(tGrow, stormOps), perOp(tPre, stormOps), perOp(tUni, stormOps), perOp(tSM, stormOps))
	fmt.Printf("    (grew to %d groups with %d rejects; resize cost is the gap to pre-sized)\n",
		growing.Applier.(*hihash.Set).NumGroups(), growing.fulls)
	return nil
}
