// Command hiverify runs the verification suite that reproduces the paper's
// claims as executable checks: the Table 1 possibility/impossibility matrix
// for SWSR registers, the Section 5.1 positive results (max register, set),
// the universal construction of Section 6 with its ablations, the
// Algorithm 6 R-LLSC properties, and the HICHT hash table of
// internal/hihash — bounded (E21) and displacing (E22), the
// adversarial-observer family (E23), recorded native runs machine-checked
// for linearizability (E25) and the fast-path read path (E26). The checks
// are defined in internal/experiment.
//
// Usage:
//
//	hiverify [-exp E1,E2,...|all] [-deep]
//
// Each experiment prints PASS/REFUTED lines; REFUTED(expected) marks
// violations the paper predicts (impossibility witnesses).
package main

import (
	"flag"
	"fmt"
	"os"

	"hiconc/internal/experiment"
)

var (
	expFlag  = flag.String("exp", "all", experiment.Usage(experiment.Verify))
	deepFlag = flag.Bool("deep", false, "use deeper exploration bounds (slower)")
)

func main() {
	flag.Parse()
	if err := runSelected(); err != nil {
		fmt.Fprintln(os.Stderr, "hiverify:", err)
		os.Exit(1)
	}
}

// runSelected runs the experiments named by -exp (split from main so the
// smoke tests can drive it in-process).
func runSelected() error {
	return experiment.Run(experiment.Verify, *expFlag, &experiment.Config{Deep: *deepFlag})
}
