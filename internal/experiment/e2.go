package experiment

import (
	"errors"
	"fmt"

	"hiconc/internal/core"
	"hiconc/internal/harness"
	"hiconc/internal/hicheck"
	"hiconc/internal/registers"
)

func checkE2(c *Config) error {
	alg2 := registers.NewAlg2(3, 1)
	alg4 := registers.NewAlg4(3, 1)
	ms := c.depth(13, 16)

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

// verifyCell checks one (implementation, observation class) cell of
// Table 1; E14 reuses it for the Section 5.1 max register.
func verifyCell(h *harness.Harness, class hicheck.ObsClass, canonOps, maxSteps, fuzz int) error {
	c, err := hicheck.BuildCanon(h, canonOps, 1200)
	if err != nil {
		return err
	}
	scripts := hicheck.Scripts(h, []int{1, 1})
	if _, err := hicheck.CheckExhaustive(c, h, scripts, class, maxSteps, 2_000_000, true); err != nil {
		return err
	}
	big := [][][]core.Op{{{wr(2), wr(1), wr(3)}, {rd, rd}}}
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
