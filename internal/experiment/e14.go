package experiment

import (
	"fmt"

	"hiconc/internal/core"
	"hiconc/internal/hicheck"
	"hiconc/internal/registers"
)

func checkE14(c *Config) error {
	mr := registers.NewMaxReg(3, 1)
	if err := verifyCell(mr, hicheck.StateQuiescent, 3, c.depth(12, 14), 300); err != nil {
		return fmt.Errorf("max register: %w", err)
	}
	fmt.Println("    max register: wait-free state-quiescent HI  PASS")
	st := registers.NewSet(2, 2)
	canon, err := hicheck.BuildCanon(st, 3, 400)
	if err != nil {
		return err
	}
	if d := canon.MaxCanonDistance(); d > 1 {
		return fmt.Errorf("set canonical distance %d > 1", d)
	}
	scripts := [][][]core.Op{{{ins(1), ins(2)}, {look(1), ins(1)}}}
	if _, err := hicheck.CheckExhaustive(canon, st, scripts, hicheck.Perfect, 10, 300000, true); err != nil {
		return err
	}
	fmt.Println("    set: wait-free perfect HI                   PASS")
	return nil
}
