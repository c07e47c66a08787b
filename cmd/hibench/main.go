// Command hibench runs the native performance experiments and prints their
// tables: the register algorithms, universal-construction scaling and the
// cost of clearing (E10-E12), scale-out (E20), the HICHT tables (E21-E23),
// the observers' own cost (E24, E25) and the fast-path reads (E26). The
// families are defined in internal/experiment.
//
// Absolute numbers depend on the machine; the paper makes no quantitative
// claims, so the interesting output is the relative shape (see
// EXPERIMENTS.md).
//
// With -json, each experiment family additionally writes a machine-
// readable BENCH_<exp>.json file (internal/benchfmt) so the performance
// trajectory can be tracked across commits. With -check, fresh results
// are compared against the committed documents and the run fails on
// regression — the CI gate.
//
// With -record FILE, the whole run executes under the flight recorder
// (internal/hirec) and the recording is written to FILE as Chrome trace
// event JSON (loadable in Perfetto / chrome://tracing).
//
// With -watch, hibench instead runs a built-in mixed workload with
// metrics enabled and redraws a live table of protocol counters and
// latency histograms every -tick. With -http ADDR, any mode additionally
// serves /debug/pprof (with block and mutex profiles enabled),
// /debug/vars (expvar, including the histats tree), a plain-text
// /metrics endpoint and a /trace download of the live flight recording.
//
// Usage:
//
//	hibench [-exp E10,...,E26|all] [-ops N] [-procs list] [-json]
//	        [-check [-tol F] [-benchdir DIR]] [-maxoverhead PCT]
//	        [-record FILE] [-http ADDR] [-watch [-tick D] [-watchfor D]]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hiconc/internal/benchfmt"
	"hiconc/internal/experiment"
	"hiconc/internal/hirec"
)

var (
	expFlag   = flag.String("exp", "all", experiment.Usage(experiment.Bench))
	opsFlag   = flag.Int("ops", 200000, "operations per measurement")
	procsFlag = flag.String("procs", "1,2,4,8", "goroutine counts of the universal-construction scaling sweep")
	jsonFlag  = flag.Bool("json", false, "write one BENCH_<exp>.json per experiment family")

	checkFlag    = flag.Bool("check", false, "compare fresh results against committed BENCH_<exp>.json and fail on regression")
	tolFlag      = flag.Float64("tol", 0.5, "-check relative tolerance (0.5 = 50% slower fails)")
	benchdirFlag = flag.String("benchdir", ".", "directory holding the committed BENCH_<exp>.json files for -check")

	maxOverheadFlag = flag.Float64("maxoverhead", 2.0, "observer-overhead gate: maximum computed disabled-path overhead, percent")

	recordFlag = flag.String("record", "", "run under the flight recorder and write the Chrome trace JSON to this file")

	httpFlag = flag.String("http", "", "serve /debug/pprof, /debug/vars and /metrics on this address (e.g. localhost:6060)")

	watchFlag    = flag.Bool("watch", false, "run a live workload and redraw the protocol-metrics table every -tick")
	tickFlag     = flag.Duration("tick", 500*time.Millisecond, "-watch refresh interval")
	watchForFlag = flag.Duration("watchfor", 10*time.Second, "how long -watch runs (0 = until interrupted)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hibench:", err)
		os.Exit(1)
	}
}

// parseProcs validates and parses the -procs list.
func parseProcs() ([]int, error) {
	var procs []int
	for _, s := range strings.Split(*procsFlag, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad -procs: %w", err)
		}
		if p < 1 {
			return nil, fmt.Errorf("bad -procs: count %d out of range", p)
		}
		procs = append(procs, p)
	}
	return procs, nil
}

// rec accumulates measurement rows per experiment family for -json and
// -check output (internal/benchfmt owns the document schema).
var rec = benchfmt.NewRecorder()

// run executes the selected experiment families (split from main so the
// smoke tests can drive it in-process).
func run() (retErr error) {
	// Validate flags before any experiment runs, so a typo cannot discard
	// already-measured families.
	procs, err := parseProcs()
	if err != nil {
		return err
	}
	if _, err := experiment.Select(experiment.Bench, *expFlag); err != nil {
		return err
	}
	rec.Ops = *opsFlag
	if *httpFlag != "" {
		if err := startHTTP(*httpFlag); err != nil {
			return err
		}
	}
	if *recordFlag != "" {
		flight := hirec.Enable(1 << 15)
		defer func() {
			hirec.Disable()
			if werr := writeFlightTrace(*recordFlag, flight.Snapshot()); werr != nil && retErr == nil {
				retErr = werr
			}
		}()
	}
	if *watchFlag {
		return runWatch(*tickFlag, *watchForFlag)
	}
	// The families' gates must not stop the results from being written or
	// checked; their errors are reported after the bookkeeping below.
	gateErr := experiment.Run(experiment.Bench, *expFlag, &experiment.Config{
		Ops: *opsFlag, Procs: procs, MaxOverhead: *maxOverheadFlag, Rec: rec,
	})
	// Read the committed baselines before -json can overwrite them (the
	// common CI invocation runs from the repository root with both flags).
	var checkErr error
	if *checkFlag {
		checkErr = runCheck()
	}
	if *jsonFlag {
		if err := writeJSON(); err != nil {
			return err
		}
	}
	if checkErr != nil {
		return checkErr
	}
	return gateErr
}

// writeJSON emits one BENCH_<exp>.json per recorded family.
func writeJSON() error {
	names, err := rec.WriteFiles(".")
	for _, name := range names {
		fmt.Printf("wrote %s\n", name)
	}
	return err
}

// writeFlightTrace writes a -record recording as Chrome trace JSON.
func writeFlightTrace(path string, rec hirec.Recording) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-record: %w", err)
	}
	if err := hirec.WriteChromeTrace(f, rec); err != nil {
		f.Close()
		return fmt.Errorf("-record: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("-record: %w", err)
	}
	fmt.Printf("wrote flight recording (%d events, %d dropped) to %s\n",
		len(rec.Events), rec.Dropped, path)
	return nil
}
