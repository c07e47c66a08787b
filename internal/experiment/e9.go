package experiment

import (
	"fmt"
	"strings"

	"hiconc/internal/hicheck"
	"hiconc/internal/llsc"
	"hiconc/internal/universal"
)

func checkE9(*Config) error {
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
