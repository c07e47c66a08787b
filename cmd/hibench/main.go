// Command hibench runs the native performance experiments and prints their
// tables:
//
//	E10 — SWSR register algorithms: write/read latency vs K, and reader
//	      retry behaviour under a write storm (lock-free Algorithm 2 vs
//	      wait-free Algorithm 4).
//	E11 — universal construction scaling: throughput vs goroutine count for
//	      the HI universal construction against the leaky ablation, a
//	      mutex-guarded object and a bare CAS loop.
//	E12 — the cost of history independence: ns/op of the full construction
//	      vs the non-clearing ablation across operation mixes.
//	E20 — scale-out: sharded set/map throughput vs shard count against the
//	      single-Universal baseline, and the operation-combining ablation
//	      under total contention.
//	E21 — the HICHT direct hash table (internal/hihash) against the
//	      sharded universal construction and a sync.Map baseline, across
//	      load factors and Zipf skews.
//	E22 — the unbounded HICHT: cross-group displacement and online
//	      resize — a load-factor sweep past 1 with zero RspFull, an
//	      insert storm that grows the table mid-flight, and the online-
//	      growing map.
//	E23 — adversarial observers: the Kill matrix of internal/faultinject
//	      as a measurement — per-steppoint crash exposure (word distance
//	      of the raw image from the nearest reachable canonical layout)
//	      and the cost of recovering a crashed table to canonical, plus
//	      the observer's own cost of building and byte-diffing history
//	      twins.
//	E24 — observability: the cost of the internal/histats metrics layer —
//	      the unit price of a disabled site, enabled-vs-disabled A/B on
//	      the E21/E22 workloads, a machine-checked bound on the computed
//	      disabled-path overhead, the protocol-event distributions the
//	      enabled run gathers, and a raw-dump identity check that metrics
//	      stay outside the HI boundary.
//	E25 — the flight recorder (internal/hirec): the unit price of a
//	      disabled recording site, disabled-vs-recording A/B on the
//	      API-layer hash set, a machine-checked overhead bound, a recorded
//	      concurrent run whose extracted history must pass the
//	      linearizability checker (and a corrupted recording that must be
//	      rejected), and the raw-dump identity check that recording stays
//	      outside the HI boundary.
//	E26 — fast-path reads: the SWAR + bounded-retry read path of the
//	      displacing table against the pre-E26 reference read path and a
//	      sync.Map baseline across read-heavy Zipf mixes, the retry and
//	      probe distributions of a churny run, and machine-checked gates
//	      that retries stay within the fast-path budget, lookups at
//	      quiescence allocate nothing, and the new path wins read-heavy
//	      at 8 goroutines.
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
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"hiconc/internal/hirec"
)

var (
	expFlag   = flag.String("exp", "all", "experiments to run: E10, E11, E12, E20, E21, E22, E23, E24, E25, E26 or 'all'")
	opsFlag   = flag.Int("ops", 200000, "operations per measurement")
	procsFlag = flag.String("procs", "1,2,4,8", "goroutine counts for E11")
	jsonFlag  = flag.Bool("json", false, "write one BENCH_<exp>.json per experiment family")

	checkFlag    = flag.Bool("check", false, "compare fresh results against committed BENCH_<exp>.json and fail on regression")
	tolFlag      = flag.Float64("tol", 0.5, "-check relative tolerance (0.5 = 50% slower fails)")
	benchdirFlag = flag.String("benchdir", ".", "directory holding the committed BENCH_<exp>.json files for -check")

	maxOverheadFlag = flag.Float64("maxoverhead", 2.0, "E24/E25 gate: maximum computed disabled-path observer overhead, percent")

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

// knownExps is the experiment vocabulary -exp is validated against: a
// typo must fail loudly instead of silently selecting nothing.
var knownExps = []string{"E10", "E11", "E12", "E20", "E21", "E22", "E23", "E24", "E25", "E26"}

// run executes the selected experiment families (split from main so the
// smoke tests can drive it in-process).
func run() (retErr error) {
	// Validate flags before any experiment runs, so a typo cannot discard
	// already-measured families.
	procs, err := parseProcs()
	if err != nil {
		return err
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.ToUpper(strings.TrimSpace(e))] = true
	}
	for e := range want {
		if e != "ALL" && !slices.Contains(knownExps, e) {
			return fmt.Errorf("unknown experiment %q in -exp (have %s or 'all')",
				e, strings.Join(knownExps, ", "))
		}
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
	all := want["ALL"]
	if all || want["E10"] {
		runE10()
	}
	if all || want["E11"] {
		runE11(procs)
	}
	if all || want["E12"] {
		runE12()
	}
	if all || want["E20"] {
		runE20()
	}
	if all || want["E21"] {
		runE21()
	}
	if all || want["E22"] {
		runE22()
	}
	// The E23-E26 gates must not stop the results from being written or
	// checked; their errors are reported after the bookkeeping below.
	var gateErr error
	if all || want["E23"] {
		gateErr = runE23()
	}
	if all || want["E24"] {
		gateErr = errors.Join(gateErr, runE24())
	}
	if all || want["E25"] {
		gateErr = errors.Join(gateErr, runE25())
	}
	if all || want["E26"] {
		gateErr = errors.Join(gateErr, runE26())
	}
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
