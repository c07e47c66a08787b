package experiment

import (
	"fmt"

	"hiconc/internal/core"
	"hiconc/internal/registers"
	"hiconc/internal/sim"
	"hiconc/internal/spec"
	"hiconc/internal/trace"
)

func renderE3(*Config) error {
	fmt.Println("=== E3 (Figure 1): Write(2) ‖ Read on Algorithm 2, K=4")
	h := registers.NewAlg2(4, 4)
	scripts := [][]core.Op{
		{{Name: spec.OpWrite, Arg: 2}},
		{{Name: spec.OpRead}},
	}
	// Interleave: the reader scans while the write is mid-flight, as in
	// Figure 1's points ② and ③.
	sch := &sim.Phases{List: []sim.Phase{
		{PID: 0, Steps: 2}, {PID: 1, Steps: 3}, {PID: 0, Steps: 10}, {PID: 1, Steps: 20},
	}}
	tr := h.BuildScripts(scripts).Run(sch, 200)
	fmt.Print(trace.Figure1(tr))
	fmt.Println("legend: P = state-changing op pending (perfect HI observers only)")
	fmt.Println("        S = state-quiescent (Definition 7)   Q = quiescent (Definition 8)")
	fmt.Println()
	return nil
}
