package experiment

import (
	"fmt"

	"hiconc/internal/universal"
)

func checkE8(*Config) error {
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
