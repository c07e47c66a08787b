// Command histarve runs the constructive impossibility adversaries: the
// Theorem 17 adversary against the SWSR register algorithms (E4) and the
// Theorem 20 adversary against the queue-with-Peek (E5). The adversary
// runs are defined in internal/experiment.
//
// Usage:
//
//	histarve [-exp E4,E5|all] [-rounds N]
package main

import (
	"flag"
	"fmt"
	"os"

	"hiconc/internal/experiment"
)

var (
	expFlag    = flag.String("exp", "all", experiment.Usage(experiment.Starve))
	roundsFlag = flag.Int("rounds", 1000, "maximum adversary rounds")
)

func main() {
	flag.Parse()
	if err := runSelected(); err != nil {
		fmt.Fprintln(os.Stderr, "histarve:", err)
		os.Exit(1)
	}
}

// runSelected runs the experiments named by -exp (split from main so the
// smoke tests can drive it in-process).
func runSelected() error {
	return experiment.Run(experiment.Starve, *expFlag, &experiment.Config{Rounds: *roundsFlag})
}
