package experiment

import (
	"errors"
	"fmt"

	"hiconc/internal/adversary"
	"hiconc/internal/registers"
)

func adversaryE5(c *Config) error {
	fmt.Println("=== E5: Theorem 20 adversary (queue with Peek from binary registers)")
	fmt.Printf("%8s %8s %-50s\n", "t", "rounds", "outcome")
	var errs error
	for _, t := range []int{2, 3, 4} {
		res, err := runAdversary(registers.NewHIQueue(t, 2), adversary.QueueConfig(t), 2, 1500, c.Rounds)
		if err != nil {
			return err
		}
		fmt.Printf("%8d %8d hiqueue: %v\n", t, res.Rounds, res)
		if !res.Starved {
			errs = errors.Join(errs, fmt.Errorf("hiqueue t=%d: Peek not starved", t))
		}
	}
	if errs == nil {
		fmt.Println("  conclusion: Peek starves — no wait-free state-quiescent HI queue")
		fmt.Println("  with Peek exists over base objects with fewer than t+1 states.")
	}
	return errs
}
