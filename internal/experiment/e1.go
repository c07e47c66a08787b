package experiment

import (
	"errors"
	"fmt"

	"hiconc/internal/hicheck"
	"hiconc/internal/registers"
)

func checkE1(*Config) error {
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
