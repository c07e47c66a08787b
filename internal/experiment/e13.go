package experiment

import (
	"fmt"

	"hiconc/internal/core"
	"hiconc/internal/registers"
	"hiconc/internal/sim"
)

func checkE13(*Config) error {
	h := registers.NewAlg4Mutant(3, 3, registers.Alg4ReaderSilent)
	scripts := [][]core.Op{{wr(1), wr(3), wr(1)}, {rd}}
	sched := []int{1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1}
	tr := h.BuildScripts(scripts).Run(sim.FixedSchedule(sched), 200)
	resps := tr.Responses(1)
	if len(resps) != 1 || resps[0] != registers.Bot {
		return fmt.Errorf("silent reader returned %v; expected the ⊥ response", resps)
	}
	fmt.Println("    REFUTED(expected): with a non-writing reader, a Read finds no value to return")
	return nil
}
