// Command hiverify runs the verification suite that reproduces the paper's
// claims as executable checks: the Table 1 possibility/impossibility matrix
// for SWSR registers, the Section 5.1 positive results (max register, set),
// the universal construction of Section 6 with its ablations, the
// Algorithm 6 R-LLSC properties, and the HICHT hash table of
// internal/hihash — the bounded group-word design (E21), the unbounded
// displacing, online-resizing one (E22), the adversarial-observer
// family (E23): raw-memory twin dumps, enumerated crash schedules on the
// simulated twins, and the native Kill matrix over every labeled
// protocol step — the flight recorder (E25): native concurrent runs
// and faultinject crash schedules captured by internal/hirec and
// machine-checked for linearizability post hoc — and the E26 read
// path: a recorded lookup-heavy run machine-checked for
// linearizability, reads against a parked relocation mark, and twin
// raw dumps built under concurrent reader hammering.
//
// Usage:
//
//	hiverify [-exp E1,E2,...|all] [-deep]
//
// Each experiment prints PASS/REFUTED lines; REFUTED(expected) marks
// violations the paper predicts (impossibility witnesses).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"

	"hiconc/internal/core"
	"hiconc/internal/faultinject"
	"hiconc/internal/harness"
	"hiconc/internal/hicheck"
	"hiconc/internal/hihash"
	"hiconc/internal/hirec"
	"hiconc/internal/linearize"
	"hiconc/internal/llsc"
	"hiconc/internal/obj"
	"hiconc/internal/registers"
	"hiconc/internal/sim"
	"hiconc/internal/spec"
	"hiconc/internal/trace"
	"hiconc/internal/universal"
)

var (
	expFlag  = flag.String("exp", "all", "comma-separated experiment ids (E1,E2,E6,E7,E8,E9,E13,E14,E15,E21,E22,E23,E25,E26) or 'all'")
	deepFlag = flag.Bool("deep", false, "use deeper exploration bounds (slower)")
)

func main() {
	flag.Parse()
	if err := runSelected(); err != nil {
		fmt.Fprintln(os.Stderr, "hiverify:", err)
		os.Exit(1)
	}
}

// experiments is the suite in run order; -exp is validated against its
// ids, so a typo fails loudly instead of silently selecting nothing.
var experiments = []struct {
	id, title string
	run       func() error
}{
	{"E1", "Algorithm 1 is not history independent (Section 4)", runE1},
	{"E2", "Table 1: the SWSR register possibility matrix", runE2},
	{"E6", "Universal construction: linearizable, wait-free, state-quiescent HI (Theorem 32)", runE6},
	{"E7", "Ablation: removing the RL lines breaks quiescent HI (Lemma 27)", runE7},
	{"E8", "Ablation: removing the escape hatches breaks wait-freedom", runE8},
	{"E9", "Algorithm 6: R-LLSC from CAS (Theorem 28)", runE9},
	{"E13", "Proposition 19: the reader must write", runE13},
	{"E14", "Section 5.1: max register and set positive results", runE14},
	{"E15", "Baseline: the Fatourou-Kallimanis-style universal construction is not HI", runE15},
	{"E21", "HICHT hash table: perfect HI and linearizable; append ablation refuted", runE21},
	{"E22", "Unbounded HICHT: displacement + online resize are SQHI and linearizable; perfect HI provably lost", runE22},
	{"E23", "Adversarial observers: twin raw dumps indistinguishable; every crash point recovers to canonical", runE23},
	{"E25", "Flight recorder: native executions captured and machine-checked for linearizability", runE25},
	{"E26", "Fast-path reads: lookup-heavy runs linearizable; reads correct against parked marks; twin dumps identical under readers", runE26},
}

// runSelected runs the experiments named by -exp and reports an unknown
// id or the ids that failed (split from main so the smoke tests can
// drive it in-process).
func runSelected() error {
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		id := strings.ToUpper(strings.TrimSpace(e))
		if id != "ALL" && !slices.Contains(ids, id) {
			return fmt.Errorf("unknown experiment %q in -exp (have %s or 'all')", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	var failed []string
	for _, e := range experiments {
		if !want["ALL"] && !want[e.id] {
			continue
		}
		fmt.Printf("=== %s: %s\n", e.id, e.title)
		if err := e.run(); err != nil {
			failed = append(failed, e.id)
			fmt.Printf("    FAILED: %v\n", err)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

func depth(short, deep int) int {
	if *deepFlag {
		return deep
	}
	return short
}

var (
	rd = core.Op{Name: spec.OpRead}
	w  = func(v int) core.Op { return core.Op{Name: spec.OpWrite, Arg: v} }
)

func runE1() error {
	h := registers.NewAlg1(3, 1)
	_, err := hicheck.BuildCanon(h, 2, 400)
	var v *hicheck.SeqHIViolation
	if !errors.As(err, &v) {
		return fmt.Errorf("expected a sequential HI violation, got %v", err)
	}
	fmt.Printf("    REFUTED(expected): %v\n", v)
	fmt.Println("    PASS: Algorithm 1 leaks history, as Section 4 observes")
	return nil
}

// verifyCell checks one (implementation, observation class) cell of Table 1.
func verifyCell(h *harness.Harness, class hicheck.ObsClass, canonOps, maxSteps, fuzz int) error {
	c, err := hicheck.BuildCanon(h, canonOps, 1200)
	if err != nil {
		return err
	}
	scripts := hicheck.Scripts(h, []int{1, 1})
	if _, err := hicheck.CheckExhaustive(c, h, scripts, class, maxSteps, 2_000_000, true); err != nil {
		return err
	}
	big := [][][]core.Op{{{w(2), w(1), w(3)}, {rd, rd}}}
	return hicheck.CheckRandom(c, h, big, class, fuzz, 1, 400, true)
}

// refuteCell finds the violation witness for a cell the paper proves
// impossible to fill.
func refuteCell(h *harness.Harness, class hicheck.ObsClass, lens []int) (*hicheck.Violation, error) {
	c, err := hicheck.BuildCanon(h, 2, 1200)
	if err != nil {
		return nil, err
	}
	v := hicheck.FindViolation(c, h, hicheck.Scripts(h, lens), class, 12, 200000)
	if v == nil {
		return nil, errors.New("no violation found")
	}
	return v, nil
}

func runE2() error {
	alg2 := registers.NewAlg2(3, 1)
	alg4 := registers.NewAlg4(3, 1)
	ms := depth(13, 16)

	fmt.Println("    Alg 2 (lock-free):")
	if err := verifyCell(alg2, hicheck.StateQuiescent, 3, ms, 400); err != nil {
		return fmt.Errorf("Alg 2 state-quiescent HI: %w", err)
	}
	fmt.Println("      state-quiescent HI  PASS   (Theorem 9)")
	if v, err := refuteCell(alg2, hicheck.Perfect, []int{1, 0}); err != nil {
		return fmt.Errorf("Alg 2 perfect HI refutation: %w", err)
	} else {
		fmt.Printf("      perfect HI          REFUTED(expected): %v\n", v)
	}

	fmt.Println("    Alg 4 (wait-free):")
	if err := verifyCell(alg4, hicheck.Quiescent, 3, ms, 400); err != nil {
		return fmt.Errorf("Alg 4 quiescent HI: %w", err)
	}
	fmt.Println("      quiescent HI        PASS   (Theorem 12)")
	if v, err := refuteCell(alg4, hicheck.StateQuiescent, []int{0, 1}); err != nil {
		return fmt.Errorf("Alg 4 state-quiescent refutation: %w", err)
	} else {
		fmt.Printf("      state-quiescent HI  REFUTED(expected): %v\n", v)
	}
	fmt.Println("    (wait-free + state-quiescent HI is impossible from binary registers: run histarve -exp E4)")
	return nil
}

func runE6() error {
	for _, f := range []llsc.Factory{llsc.HardwareFactory{}, llsc.CASFactory{}} {
		h := universal.CounterHarness(2, 2, f, universal.Full)
		c, err := hicheck.BuildCanon(h, 3, 2000)
		if err != nil {
			return err
		}
		inc := core.Op{Name: spec.OpInc}
		dec := core.Op{Name: spec.OpDec}
		scripts := [][][]core.Op{{{inc}, {inc}}, {{inc}, {dec}}, {{dec}, {inc}}}
		ms := depth(12, 15)
		if f.Name() == "hw" {
			ms += 2
		}
		n, err := hicheck.CheckExhaustive(c, h, scripts, hicheck.StateQuiescent, ms, 2_000_000, true)
		if err != nil {
			return fmt.Errorf("%s: %w", h.Name, err)
		}
		fmt.Printf("    %-40s PASS (%d interleavings exhaustively)\n", h.Name, n)

		h3 := universal.CounterHarness(3, 3, f, universal.Full)
		c3, err := hicheck.BuildCanon(h3, 3, 2000)
		if err != nil {
			return err
		}
		fuzz := [][][]core.Op{{{inc, inc}, {dec, rd}, {inc, dec}}}
		if err := hicheck.CheckRandom(c3, h3, fuzz, hicheck.StateQuiescent, depth(300, 2000), 5, 2000, true); err != nil {
			return fmt.Errorf("%s fuzz: %w", h3.Name, err)
		}
		fmt.Printf("    %-40s PASS (random-schedule fuzz)\n", h3.Name)
	}
	return nil
}

func runE7() error {
	inc := core.Op{Name: spec.OpInc}
	for _, variant := range []universal.Variant{universal.NoRelease, universal.Full} {
		h := universal.CounterHarness(3, 2, llsc.CASFactory{}, variant)
		c, err := hicheck.BuildCanon(h, 2, 2000)
		if err != nil {
			return err
		}
		var found *hicheck.Violation
		for a := 1; a <= 30 && found == nil; a++ {
			for b := 1; b <= 15 && found == nil; b++ {
				tr := h.BuildScripts([][]core.Op{{inc}, {inc}}).Run(phases(1, a, 0, b), 1000)
				if tr.Truncated {
					continue
				}
				if err := hicheck.CheckTrace(c, tr, hicheck.Quiescent); err != nil {
					var v *hicheck.Violation
					if errors.As(err, &v) {
						found = v
					}
				}
			}
		}
		switch {
		case variant == universal.NoRelease && found == nil:
			return errors.New("NoRelease mutant: no violation found")
		case variant == universal.NoRelease:
			fmt.Printf("    no-release mutant   REFUTED(expected): %v\n", found)
		case found != nil:
			return fmt.Errorf("full algorithm violated quiescent HI: %v", found)
		default:
			fmt.Println("    faithful Algorithm 5 PASS over the same schedule grid")
		}
	}
	return nil
}

func runE8() error {
	p0, p1, steps := universal.StarvationDemo(universal.NoEscape, 40, 4000)
	if p0 != 0 || p1 < 20 {
		return fmt.Errorf("NoEscape demo inconclusive: p0=%d p1=%d", p0, p1)
	}
	fmt.Printf("    no-escape mutant: p0 starved (%d steps, 0 ops) while p1 completed %d ops\n", steps, p1)
	p0, p1, steps = universal.StarvationDemo(universal.Full, 40, 6000)
	if p0 != 1 {
		return fmt.Errorf("full variant did not escape: p0=%d p1=%d", p0, p1)
	}
	fmt.Printf("    faithful Algorithm 5: p0 escaped after %d steps while p1 completed %d ops\n", steps, p1)
	return nil
}

func runE9() error {
	// The R-LLSC checks live in the llsc test suite; here we re-verify the
	// perfect-HI core property: the cell's memory representation is exactly
	// its (val, context) state, with contexts empty at quiescence, by
	// running the universal construction's canonical map over it.
	h := universal.CounterHarness(2, 2, llsc.CASFactory{}, universal.Full)
	c, err := hicheck.BuildCanon(h, 3, 2000)
	if err != nil {
		return err
	}
	for state, mem := range c.ByState {
		for _, cell := range mem {
			if !strings.HasSuffix(cell, "|ctx=0)") {
				return fmt.Errorf("state %q: cell %s has a non-empty context at quiescence", state, cell)
			}
		}
	}
	fmt.Printf("    PASS: %d canonical states, all contexts empty (Lemma 27)\n", len(c.ByState))
	return nil
}

func runE13() error {
	h := registers.NewAlg4Mutant(3, 3, registers.Alg4ReaderSilent)
	scripts := [][]core.Op{{w(1), w(3), w(1)}, {rd}}
	sched := []int{1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1}
	tr := h.BuildScripts(scripts).Run(sim.FixedSchedule(sched), 200)
	resps := tr.Responses(1)
	if len(resps) != 1 || resps[0] != registers.Bot {
		return fmt.Errorf("silent reader returned %v; expected the ⊥ response", resps)
	}
	fmt.Println("    REFUTED(expected): with a non-writing reader, a Read finds no value to return")
	return nil
}

func runE14() error {
	mr := registers.NewMaxReg(3, 1)
	if err := verifyCell(mr, hicheck.StateQuiescent, 3, depth(12, 14), 300); err != nil {
		return fmt.Errorf("max register: %w", err)
	}
	fmt.Println("    max register: wait-free state-quiescent HI  PASS")
	st := registers.NewSet(2, 2)
	c, err := hicheck.BuildCanon(st, 3, 400)
	if err != nil {
		return err
	}
	if d := c.MaxCanonDistance(); d > 1 {
		return fmt.Errorf("set canonical distance %d > 1", d)
	}
	ins := func(v int) core.Op { return core.Op{Name: spec.OpInsert, Arg: v} }
	look := func(v int) core.Op { return core.Op{Name: spec.OpLookup, Arg: v} }
	scripts := [][][]core.Op{{{ins(1), ins(2)}, {look(1), ins(1)}}}
	if _, err := hicheck.CheckExhaustive(c, st, scripts, hicheck.Perfect, 10, 300000, true); err != nil {
		return err
	}
	fmt.Println("    set: wait-free perfect HI                   PASS")
	return nil
}

func runE15() error {
	h := universal.NewFKHarness(spec.NewCounter(2, 1), 2, llsc.CASFactory{})
	_, err := hicheck.BuildCanon(h, 2, 2000)
	var v *hicheck.SeqHIViolation
	if !errors.As(err, &v) {
		return fmt.Errorf("expected a sequential HI violation, got %v", err)
	}
	fmt.Printf("    REFUTED(expected): %v\n", v)
	fmt.Println("    PASS: storing responses in head reveals completed operations,")
	fmt.Println("    which is precisely what Algorithm 5's clearing stages erase")
	return nil
}

func runE21() error {
	// The direct hash table: every update is one CAS on a bucket group
	// whose slots sit in canonical priority order, so the simulated twin
	// must satisfy the strongest class — perfect HI — plus
	// linearizability, over every explored interleaving.
	p := hihash.Params{T: 3, G: 2, B: 1}
	h := hihash.NewSimHarness(p, 2, hihash.VariantCanonical)
	c, err := hicheck.BuildCanon(h, 3, 2000)
	if err != nil {
		return err
	}
	ins := func(v int) core.Op { return core.Op{Name: spec.OpInsert, Arg: v} }
	rem := func(v int) core.Op { return core.Op{Name: spec.OpRemove, Arg: v} }
	look := func(v int) core.Op { return core.Op{Name: spec.OpLookup, Arg: v} }
	scripts := [][][]core.Op{
		{{ins(1)}, {ins(2)}},
		{{ins(1), rem(1)}, {ins(2)}},
		{{ins(1), look(2)}, {ins(3)}},
	}
	n, err := hicheck.CheckExhaustive(c, h, scripts, hicheck.Perfect, depth(14, 16), 1_000_000, true)
	if err != nil {
		return fmt.Errorf("%s: %w", h.Name, err)
	}
	fmt.Printf("    %-44s PASS (%d interleavings exhaustively)\n", h.Name, n)
	if err := hicheck.CheckRandom(c, h, scripts, hicheck.Perfect, depth(200, 1000), 23, 3000, true); err != nil {
		return fmt.Errorf("%s fuzz: %w", h.Name, err)
	}
	fmt.Printf("    %-44s PASS (random-schedule fuzz)\n", h.Name)

	// The append-order ablation must be refuted already sequentially.
	ha := hihash.NewSimHarness(hihash.Params{T: 3, G: 2, B: 2}, 2, hihash.VariantAppend)
	_, err = hicheck.BuildCanon(ha, 2, 2000)
	var v *hicheck.SeqHIViolation
	if !errors.As(err, &v) {
		return fmt.Errorf("append ablation: expected a sequential HI violation, got %v", err)
	}
	fmt.Printf("    append-order ablation REFUTED(expected): %v\n", v)
	return nil
}

func runE22() error {
	// The unbounded HICHT: cross-group Robin Hood displacement with
	// helped relocations, and an online resize. A relocation spans two
	// group words, so adjacent canonical layouts differ in >= 2 base
	// objects and Proposition 6 forbids perfect HI — the checker first
	// exhibits that witness, then verifies the class the HICHT paper
	// actually proves: state-quiescent HI plus linearizability, over
	// displacement races and schedules that cross a resize.
	p := hihash.Params{T: 3, G: 2, B: 1}
	h := hihash.NewDisplaceHarness(p, 2, hihash.DisplaceCanonical)
	c, err := hicheck.BuildCanon(h, 3, 4000)
	if err != nil {
		return err
	}
	ins := func(v int) core.Op { return core.Op{Name: spec.OpInsert, Arg: v} }
	rem := func(v int) core.Op { return core.Op{Name: spec.OpRemove, Arg: v} }
	look := func(v int) core.Op { return core.Op{Name: spec.OpLookup, Arg: v} }
	grow := core.Op{Name: spec.OpGrow}

	if d := c.MaxCanonDistance(); d < 2 {
		return fmt.Errorf("canonical distance %d; displacement should force >= 2", d)
	} else {
		fmt.Printf("    canonical distance %d > 1: perfect HI impossible (Proposition 6)\n", d)
	}
	refute := [][][]core.Op{{{ins(1)}, {ins(2)}}, {{ins(1), rem(1)}, {ins(2)}}}
	if v := hicheck.FindViolation(c, h, refute, hicheck.Perfect, 22, 400000); v == nil {
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
	ms := depth(18, 26)
	n1, err := hicheck.CheckExhaustive(c, h, scripts, hicheck.StateQuiescent, ms, 400000, true)
	if err != nil && !errors.Is(err, sim.ErrBudget) {
		return fmt.Errorf("%s: %w", h.Name, err)
	}
	n2, err := hicheck.CheckExhaustive(c, h, resizeScripts, hicheck.StateQuiescent, depth(20, 28), 400000, true)
	if err != nil && !errors.Is(err, sim.ErrBudget) {
		return fmt.Errorf("%s resize: %w", h.Name, err)
	}
	fmt.Printf("    state-quiescent HI + linearizability PASS (%d displacement + %d mid-resize interleavings)\n", n1, n2)
	if err := hicheck.CheckRandom(c, h, scripts, hicheck.StateQuiescent, depth(120, 500), 31, 5000, true); err != nil {
		return fmt.Errorf("%s fuzz: %w", h.Name, err)
	}
	if err := hicheck.CheckRandom(c, h, resizeScripts, hicheck.StateQuiescent, depth(120, 500), 97, 6000, true); err != nil {
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
	nw, err := hicheck.CheckExhaustive(cw, hw, wide, hicheck.StateQuiescent, depth(18, 24), 300000, true)
	if err != nil && !errors.Is(err, sim.ErrBudget) {
		return fmt.Errorf("%s: %w", hw.Name, err)
	}
	if err := hicheck.CheckRandom(cw, hw, wide, hicheck.StateQuiescent, depth(80, 400), 53, 4000, true); err != nil {
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

func runE23() error {
	// E23 makes the adversary of the HI definitions executable against
	// the native tables. Three sub-experiments:
	//   (a) twin raw dumps — two tables driven to the same abstract set
	//       by different histories, captured as live word arrays through
	//       unsafe, must be byte-identical and equal to the canonical
	//       packed layout;
	//   (b) enumerated crash schedules on the simulated twins — a
	//       process killed after every possible number of primitive
	//       steps, with survivors running to completion, must always
	//       leave a canonical memory of a linearizable state;
	//   (c) the native Kill matrix — a goroutine killed at every labeled
	//       protocol steppoint; the exposed image must lie within 5
	//       words of a reachable canonical layout (the observed analogue
	//       of E21's distance bound), and recovery must restore
	//       canonical memory exactly.
	const (
		bDomain, bGroups = 16, 8
		dDomain, dGroups = 8, 2
	)

	pairs := depth(1000, 4000)
	for trial := 0; trial < pairs; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		target := faultinject.RandomSet(rng, bDomain, bDomain)
		a, b := hihash.NewSet(bDomain, bGroups), hihash.NewSet(bDomain, bGroups)
		faultinject.BuildHistory(a, target, int64(1000+trial))
		faultinject.BuildHistory(b, target, int64(2000+trial))
		if !bytes.Equal(a.RawDump(), b.RawDump()) {
			return fmt.Errorf("bounded twins: trial %d: same state %v, different raw dumps", trial, target)
		}
		if d := faultinject.CanonicalDistance(a, target); d != 0 {
			return fmt.Errorf("bounded twins: trial %d: state %v at distance %d from canonical", trial, target, d)
		}
	}
	fmt.Printf("    bounded twins:    %4d history pairs, raw dumps byte-identical and canonical\n", pairs)

	overload := faultinject.OverloadScript(dDomain, dGroups)
	dPairs := depth(600, 2400)
	for trial := 0; trial < dPairs; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		target := faultinject.RandomSet(rng, dDomain, 6)
		if trial%3 == 0 {
			// Force the overloaded set whose home group overflows, so a
			// third of the pairs exercise real cross-group displacement.
			target = overload.Final
		}
		a, b := hihash.NewDisplaceSet(dDomain, dGroups), hihash.NewDisplaceSet(dDomain, dGroups)
		faultinject.BuildHistory(a, target, int64(1000+trial))
		faultinject.BuildHistory(b, target, int64(2000+trial))
		if !bytes.Equal(a.RawDump(), b.RawDump()) {
			return fmt.Errorf("displacing twins: trial %d: same state %v, different raw dumps", trial, target)
		}
		if d := faultinject.CanonicalDistance(a, target); d != 0 {
			return fmt.Errorf("displacing twins: trial %d: state %v at distance %d from canonical", trial, target, d)
		}
	}
	fmt.Printf("    displacing twins: %4d history pairs (1/3 with forced displacement), dumps canonical\n", dPairs)

	p := hihash.Params{T: 3, G: 2, B: 1}
	ins := func(v int) core.Op { return core.Op{Name: spec.OpInsert, Arg: v} }
	rem := func(v int) core.Op { return core.Op{Name: spec.OpRemove, Arg: v} }
	look := func(v int) core.Op { return core.Op{Name: spec.OpLookup, Arg: v} }
	grow := core.Op{Name: spec.OpGrow}
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

	newSet := func() *hihash.Set { return hihash.NewDisplaceSet(dDomain, dGroups) }
	cells := faultinject.KillMatrix(newSet, overload)
	mid, maxDist := 0, 0
	for _, c := range cells {
		if c.Err != nil {
			return c.Err
		}
		switch {
		case c.Distance < 0:
			mid++
		case c.Distance > faultinject.MaxCrashDistance:
			return fmt.Errorf("crash at %s: image at distance %d > %d from every reachable canonical layout", c.Plan, c.Distance, faultinject.MaxCrashDistance)
		case c.Distance > maxDist:
			maxDist = c.Distance
		}
	}
	if len(cells) < int(hihash.NumSteppoints) {
		return fmt.Errorf("only %d crash cells reached; the workload misses whole steppoints", len(cells))
	}
	fmt.Printf("    native Kill matrix: %d cells (%d mid-drain), max stable-geometry distance %d <= %d\n",
		len(cells), mid, maxDist, faultinject.MaxCrashDistance)
	return nil
}

// runE25 closes the loop between the native stack and the checker: the
// flight recorder (internal/hirec) captures a real concurrent run and a
// faultinject crash schedule at the API layer, and the recorded
// histories are extracted and machine-checked for linearizability post
// hoc — the native analogue of what E6/E21/E22 prove on the simulated
// twins. A corrupted recording must be rejected before it reaches the
// checker (a verdict on a broken history proves nothing).
func runE25() error {
	defer hirec.Disable()

	// (a) A recorded concurrent stress run on the API-layer hash set:
	// extract every invoke/return pair and hand the history to the
	// exhaustive checker (which caps at 64 operations, so the run is
	// sized to fit).
	const n, opsPer, domain = 4, 8, 16
	flight := hirec.Enable(1 << 12)
	s := obj.NewHashSet(domain)
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				key := (pid*3+i)%domain + 1
				switch i % 3 {
				case 0:
					s.Insert(key)
				case 1:
					s.Contains(key)
				default:
					s.Remove(key)
				}
			}
		}(pid)
	}
	wg.Wait()
	hirec.Disable()
	recording := flight.Snapshot()
	recs, err := hirec.Records(recording)
	if err != nil {
		return fmt.Errorf("stress extraction: %w", err)
	}
	if err := linearize.CheckRecords(spec.NewSet(domain), recs); err != nil {
		fmt.Print(trace.NativeTimeline(recording))
		return fmt.Errorf("recorded stress run not linearizable: %w", err)
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
	flight = hirec.Enable(1 << 12)
	for _, k := range heavy[1:] {
		cs.Insert(k)
	}
	fired := faultinject.RunKilled(faultinject.Plan{Point: hihash.SpMarkSet, Occurrence: 1}, func() { cs.Insert(heavy[0]) })
	hirec.Disable()
	if !fired {
		return errors.New("crash schedule: the displacing insert never reached mark-set")
	}
	crashRec := flight.Snapshot()
	crashRecs, err := hirec.Records(crashRec)
	if err != nil {
		return fmt.Errorf("crash extraction: %w", err)
	}
	pending := 0
	for _, r := range crashRecs {
		if !r.Completed {
			pending++
		}
	}
	if pending != 1 {
		fmt.Print(trace.NativeTimeline(crashRec))
		return fmt.Errorf("crash schedule: %d pending operations extracted, want exactly 1 (the killed insert)", pending)
	}
	if err := linearize.CheckRecords(spec.NewSet(domain), crashRecs); err != nil {
		fmt.Print(trace.NativeTimeline(crashRec))
		return fmt.Errorf("recorded crash schedule not linearizable: %w", err)
	}
	fmt.Println("    recorded crash schedule: kill at mark-set left 1 pending op, history linearizable  PASS")

	// (c) The negative control: extraction must reject a recording it
	// cannot vouch for.
	corrupt := hirec.Recording{Events: append(append([]hirec.Event{}, crashRec.Events...), hirec.Event{
		Seq: uint64(len(crashRec.Events)) + 1, Kind: hirec.KReturn,
		Lane: 63, Index: 9999, Name: spec.OpInsert,
	})}
	if _, err := hirec.Records(corrupt); err == nil {
		return errors.New("corrupted recording accepted by extraction")
	} else {
		fmt.Printf("    corrupted recording rejected  PASS (%v)\n", err)
	}
	return nil
}

// runE26 verifies the E26 read path of the displacing table end to end:
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
func runE26() error {
	// (a) Recorded lookup-heavy run: three of every four operations are
	// lookups; the rest churn so the lookups race real updates. Sized to
	// fit the exhaustive checker's 64-operation cap.
	const n, opsPer, domain = 4, 8, 16
	flight := hirec.Enable(1 << 12)
	s := obj.NewHashSet(domain)
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				key := (pid*5+i)%domain + 1
				switch {
				case i%4 == 0:
					s.Insert(key)
				case i%8 == 7:
					s.Remove(key)
				default:
					s.Contains(key)
				}
			}
		}(pid)
	}
	wg.Wait()
	hirec.Disable()
	recording := flight.Snapshot()
	recs, err := hirec.Records(recording)
	if err != nil {
		return fmt.Errorf("lookup-heavy extraction: %w", err)
	}
	if err := linearize.CheckRecords(spec.NewSet(domain), recs); err != nil {
		fmt.Print(trace.NativeTimeline(recording))
		return fmt.Errorf("recorded lookup-heavy run not linearizable: %w", err)
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
	trials := depth(200, 800)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		target := faultinject.RandomSet(rng, dDomain, 6)
		if trial%3 == 0 {
			target = dheavy
		}
		a, b := hihash.NewDisplaceSet(dDomain, dGroups), hihash.NewDisplaceSet(dDomain, dGroups)
		buildWithReaders(a, target, int64(1000+trial))
		buildWithReaders(b, target, int64(2000+trial))
		if !bytes.Equal(a.RawDump(), b.RawDump()) {
			return fmt.Errorf("twins under readers: trial %d: same state %v, different raw dumps", trial, target)
		}
		if d := faultinject.CanonicalDistance(a, target); d != 0 {
			return fmt.Errorf("twins under readers: trial %d: state %v at distance %d from canonical", trial, target, d)
		}
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

// phases builds the two-phase-then-finish schedule used by E7.
func phases(pid1, n1, pid2, n2 int) *sim.Phases {
	return &sim.Phases{List: []sim.Phase{
		{PID: pid1, Steps: n1}, {PID: pid2, Steps: n2},
		{PID: pid1, Steps: 400}, {PID: pid2, Steps: 400},
	}}
}
