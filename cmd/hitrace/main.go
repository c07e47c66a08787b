// Command hitrace renders paper-figure-style execution traces: Figure 1's
// observation classes on an Algorithm 2 execution (E3), Figure 3's
// head-mode alternation of the universal construction (E6), and a
// recorded native run of the hash set drawn the same way (E25). The
// renders are defined in internal/experiment.
//
// E3 and E6 render simulated schedules, so their output is
// deterministic; E25 records a live run, so its interleaving (and the
// timestamps) differ run to run.
//
// Usage:
//
//	hitrace [-exp E3,E6,E25|all]
package main

import (
	"flag"
	"fmt"
	"os"

	"hiconc/internal/experiment"
)

var expFlag = flag.String("exp", "all", experiment.Usage(experiment.Trace))

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hitrace:", err)
		os.Exit(1)
	}
}

// run renders the experiments named by -exp in order (split from main
// so the tests can drive it in-process).
func run() error {
	return experiment.Run(experiment.Trace, *expFlag, &experiment.Config{})
}
