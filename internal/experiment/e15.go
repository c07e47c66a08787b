package experiment

import (
	"errors"
	"fmt"

	"hiconc/internal/hicheck"
	"hiconc/internal/llsc"
	"hiconc/internal/spec"
	"hiconc/internal/universal"
)

func checkE15(*Config) error {
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
