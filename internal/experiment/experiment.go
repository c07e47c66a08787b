// Package experiment is the registry of the experiment families: each
// result of the paper (arXiv:2403.14445) and of the HICHT follow-up
// (arXiv:2503.21016) that the repository reproduces, E1 to E26, with the
// function each driver runs for it. One file per family holds all of a
// family's code: hiverify's check, hibench's measurement, hitrace's
// render and histarve's adversary. The drivers in cmd/ keep only their
// flags and the plumbing no family needs, and select families through
// Run. EXPERIMENTS.md documents each family's claim and how to read its
// output.
package experiment

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"hiconc/internal/benchfmt"
)

// Driver names the binary a family function is written for.
type Driver int

const (
	Verify Driver = iota // cmd/hiverify: PASS/REFUTED checks
	Bench                // cmd/hibench: measurement tables, BENCH rows and gates
	Trace                // cmd/hitrace: rendered executions
	Starve               // cmd/histarve: the impossibility adversaries
)

// Func runs one family for one driver; a non-nil error fails the run.
type Func func(*Config) error

// Family is one experiment family and what each driver runs for it; a
// nil Func means that driver does not serve the family.
type Family struct {
	ID, Title string
	Check     Func // Verify
	Measure   Func // Bench
	Render    Func // Trace
	Adversary Func // Starve
}

func (f Family) fn(d Driver) Func {
	switch d {
	case Verify:
		return f.Check
	case Bench:
		return f.Measure
	case Trace:
		return f.Render
	default:
		return f.Adversary
	}
}

// Config carries what the families read from their driver: its flag
// values and hibench's row recorder.
type Config struct {
	Ops         int                // hibench -ops: operations per measurement
	Procs       []int              // hibench -procs: goroutine counts for E11
	MaxOverhead float64            // hibench -maxoverhead: observer-overhead budget, percent
	Deep        bool               // hiverify -deep: deeper exploration bounds
	Rounds      int                // histarve -rounds: maximum adversary rounds
	Rec         *benchfmt.Recorder // hibench's rows for -json and -check
}

// depth picks an exploration bound by -deep.
func (c *Config) depth(short, deep int) int {
	if c.Deep {
		return deep
	}
	return short
}

// families is the registry, in run order.
var families = []Family{
	{ID: "E1", Title: "Algorithm 1 is not history independent (Section 4)", Check: checkE1},
	{ID: "E2", Title: "Table 1: the SWSR register possibility matrix", Check: checkE2},
	{ID: "E3", Title: "Figure 1: observation classes on one execution", Render: renderE3},
	{ID: "E4", Title: "Theorem 17: the reader-starvation adversary", Adversary: adversaryE4},
	{ID: "E5", Title: "Theorem 20: the queue-with-Peek adversary", Adversary: adversaryE5},
	{ID: "E6", Title: "Universal construction: linearizable, wait-free, state-quiescent HI (Theorem 32)", Check: checkE6, Render: renderE6},
	{ID: "E7", Title: "Ablation: removing the RL lines breaks quiescent HI (Lemma 27)", Check: checkE7},
	{ID: "E8", Title: "Ablation: removing the escape hatches breaks wait-freedom", Check: checkE8},
	{ID: "E9", Title: "Algorithm 6: R-LLSC from CAS (Theorem 28)", Check: checkE9},
	{ID: "E10", Title: "Native SWSR register algorithms", Measure: measureE10},
	{ID: "E11", Title: "Universal construction scaling", Measure: measureE11},
	{ID: "E12", Title: "The cost of clearing", Measure: measureE12},
	{ID: "E13", Title: "Proposition 19: the reader must write", Check: checkE13},
	{ID: "E14", Title: "Section 5.1: max register and set positive results", Check: checkE14},
	{ID: "E15", Title: "Baseline: the Fatourou-Kallimanis-style universal construction is not HI", Check: checkE15},
	{ID: "E20", Title: "Scale-out: sharding and operation combining", Measure: measureE20},
	{ID: "E21", Title: "HICHT hash table: perfect HI and linearizable; append ablation refuted", Check: checkE21, Measure: measureE21},
	{ID: "E22", Title: "Unbounded HICHT: displacement + online resize are SQHI and linearizable; perfect HI provably lost", Check: checkE22, Measure: measureE22},
	{ID: "E23", Title: "Adversarial observers: twin raw dumps indistinguishable; every crash point recovers to canonical", Check: checkE23, Measure: measureE23},
	{ID: "E24", Title: "Observability: the cost of the metrics layer", Measure: measureE24},
	{ID: "E25", Title: "Flight recorder: native executions captured and machine-checked for linearizability", Check: checkE25, Measure: measureE25, Render: renderE25},
	{ID: "E26", Title: "Fast-path reads: lookup-heavy runs linearizable; reads correct against parked marks; twin dumps identical under readers", Check: checkE26, Measure: measureE26},
}

// ids lists the IDs of the families d serves, in table order.
func ids(fams []Family, d Driver) []string {
	var out []string
	for _, f := range fams {
		if f.fn(d) != nil {
			out = append(out, f.ID)
		}
	}
	return out
}

// Usage is the -exp flag's usage string for d.
func Usage(d Driver) string {
	return "experiments to run: " + strings.Join(ids(families, d), ", ") + " or 'all'"
}

// Select parses an -exp list (comma-separated IDs in any case, or
// "all") into the families d serves, in table order. An ID that d does
// not serve is an error, so a typo fails loudly instead of selecting
// nothing.
func Select(d Driver, exp string) ([]Family, error) { return selectFrom(families, d, exp) }

func selectFrom(fams []Family, d Driver, exp string) ([]Family, error) {
	have := ids(fams, d)
	want := map[string]bool{}
	for _, e := range strings.Split(exp, ",") {
		id := strings.ToUpper(strings.TrimSpace(e))
		if id != "ALL" && !slices.Contains(have, id) {
			return nil, fmt.Errorf("unknown experiment %q in -exp (have %s or 'all')", id, strings.Join(have, ", "))
		}
		want[id] = true
	}
	var sel []Family
	for _, f := range fams {
		if f.fn(d) != nil && (want["ALL"] || want[f.ID]) {
			sel = append(sel, f)
		}
	}
	return sel, nil
}

// Run runs the families an -exp list selects for d, in table order, and
// joins their errors; an unknown ID fails before any family runs. Under
// Verify each family is introduced by its title and a failed one is
// marked FAILED in place, hiverify's report format; the other drivers'
// families print their own headers.
func Run(d Driver, exp string, c *Config) error { return runFrom(families, d, exp, c) }

func runFrom(fams []Family, d Driver, exp string, c *Config) error {
	sel, err := selectFrom(fams, d, exp)
	if err != nil {
		return err
	}
	var errs error
	for _, f := range sel {
		if d == Verify {
			fmt.Printf("=== %s: %s\n", f.ID, f.Title)
		}
		if err := f.fn(d)(c); err != nil {
			if d == Verify {
				fmt.Printf("    FAILED: %v\n", err)
			}
			errs = errors.Join(errs, fmt.Errorf("%s: %w", f.ID, err))
		}
	}
	return errs
}
