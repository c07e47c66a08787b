package experiment

import (
	"errors"
	"fmt"

	"hiconc/internal/adversary"
	"hiconc/internal/harness"
	"hiconc/internal/hicheck"
	"hiconc/internal/registers"
)

func adversaryE4(c *Config) error {
	fmt.Println("=== E4: Theorem 17 adversary (K-valued register from binary registers)")
	fmt.Printf("%8s %8s %-50s\n", "K", "rounds", "outcome")
	var errs error
	for _, k := range []int{3, 4, 5} {
		res, err := runAdversary(registers.NewAlg2(k, 1), adversary.RegisterConfig(k), 1, 400, c.Rounds)
		if err != nil {
			return err
		}
		fmt.Printf("%8d %8d alg2: %v\n", k, res.Rounds, res)
		if !res.Starved {
			errs = errors.Join(errs, fmt.Errorf("alg2 K=%d: reader not starved", k))
		}
	}
	res, err := runAdversary(registers.NewAlg4(3, 1), adversary.RegisterConfig(3), 1, 800, c.Rounds)
	if err != nil {
		return err
	}
	fmt.Printf("%8d %8d alg4: %v\n", 3, res.Rounds, res)
	if res.Starved {
		errs = errors.Join(errs, errors.New("alg4: reader starved"))
	}
	if errs == nil {
		fmt.Println("  conclusion: the adversary starves the state-quiescent HI implementation")
		fmt.Println("  (so it cannot be wait-free) and is defeated by the quiescent-HI-only one.")
	}
	return errs
}

// runAdversary builds h's canonical map (hicheck.BuildCanon with
// canonOps and canonSteps) and runs the adversary for at most rounds.
func runAdversary(h *harness.Harness, cfg adversary.Config, canonOps, canonSteps, rounds int) (*adversary.Result, error) {
	canon, err := hicheck.BuildCanon(h, canonOps, canonSteps)
	if err != nil {
		return nil, fmt.Errorf("canon: %w", err)
	}
	res, err := adversary.Run(h, cfg, canon, rounds)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	return res, nil
}
