package experiment

import (
	"fmt"

	"hiconc/internal/core"
	"hiconc/internal/hicheck"
	"hiconc/internal/llsc"
	"hiconc/internal/sim"
	"hiconc/internal/trace"
	"hiconc/internal/universal"
)

func checkE6(c *Config) error {
	for _, f := range []llsc.Factory{llsc.HardwareFactory{}, llsc.CASFactory{}} {
		h := universal.CounterHarness(2, 2, f, universal.Full)
		canon, err := hicheck.BuildCanon(h, 3, 2000)
		if err != nil {
			return err
		}
		scripts := [][][]core.Op{{{inc}, {inc}}, {{inc}, {dec}}, {{dec}, {inc}}}
		ms := c.depth(12, 15)
		if f.Name() == "hw" {
			ms += 2
		}
		n, err := hicheck.CheckExhaustive(canon, h, scripts, hicheck.StateQuiescent, ms, 2_000_000, true)
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
		if err := hicheck.CheckRandom(c3, h3, fuzz, hicheck.StateQuiescent, c.depth(300, 2000), 5, 2000, true); err != nil {
			return fmt.Errorf("%s fuzz: %w", h3.Name, err)
		}
		fmt.Printf("    %-40s PASS (random-schedule fuzz)\n", h3.Name)
	}
	return nil
}

func renderE6(*Config) error {
	fmt.Println("=== E6 (Figure 3): head-mode alternation of Algorithm 5 (counter, n=2, CAS cells)")
	h := universal.CounterHarness(4, 2, llsc.CASFactory{}, universal.Full)
	tr := h.BuildScripts([][]core.Op{{inc, inc}, {inc, dec}}).Run(&sim.RoundRobin{Quantum: 3}, 2000)
	fmt.Print(trace.HeadModes(tr))
	fmt.Println("(mode A = <q,⊥>, mode B = <q',<r,pj>>; Invariant 22: the two strictly alternate,")
	fmt.Println(" and each B->A transition erases the response while preserving the state)")
	fmt.Println()
	fmt.Println("operations (responses are fetch-and-inc/dec previous values):")
	fmt.Print(trace.Summary(tr))
	fmt.Println()
	return nil
}
