package experiment

import (
	"errors"
	"fmt"

	"hiconc/internal/core"
	"hiconc/internal/hicheck"
	"hiconc/internal/llsc"
	"hiconc/internal/sim"
	"hiconc/internal/universal"
)

func checkE7(*Config) error {
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

// phases builds the two-phase-then-finish schedule of the E7 grid.
func phases(pid1, n1, pid2, n2 int) *sim.Phases {
	return &sim.Phases{List: []sim.Phase{
		{PID: pid1, Steps: n1}, {PID: pid2, Steps: n2},
		{PID: pid1, Steps: 400}, {PID: pid2, Steps: 400},
	}}
}
