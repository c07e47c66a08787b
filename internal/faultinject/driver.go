package faultinject

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"hiconc/internal/hihash"
)

// The crash-and-twin driver: the one implementation of the E23 Kill
// matrix and of the history-twin builders that every consumer — the
// package's tests, hiverify and hibench — renders and asserts on.
//
// A crash cell runs a Script on a victim goroutine under a Kill plan,
// measures the crash image against every abstract set the script could
// have been in, and then applies the recovery rule:
//
//  1. settle every key of 1..domain to where the script's operations
//     leave it (insert it if the last operation on it inserted it,
//     remove it otherwise) — the survivors redo what the victim could
//     not finish;
//  2. Grow, whose drain rebuilds every group and supersedes parked
//     marks and stale restore flags;
//  3. require memory to hold exactly the script's Final set: Contains
//     agrees over the whole domain, Snapshot equals
//     CanonicalSetSnapshot, and CanonicalDistance is 0.

// MaxCrashDistance bounds how far, in CAS words, a crash image at a
// stable geometry may lie from the canonical layout of some reachable
// abstract set — the observed counterpart of E21's distance bound.
const MaxCrashDistance = 5

// maxOccurrences caps one matrix row; every script in the repository
// fires each steppoint far fewer times.
const maxOccurrences = 128

// String renders the plan as steppoint#occurrence.
func (p Plan) String() string { return fmt.Sprintf("%s#%d", p.Point, p.Occurrence) }

// RunKilled runs fn on a victim goroutine with plan armed as a Kill
// (plan.Action is ignored), waits for the victim to return or die,
// uninstalls the plan and reports whether it fired. Park plans need a
// release schedule of their own and call Install directly.
func RunKilled(plan Plan, fn func()) bool {
	plan.Action = Kill
	in := Install(plan)
	defer in.Uninstall()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fn()
	}()
	wg.Wait()
	return in.DidFire()
}

// Verb is what one scripted operation does.
type Verb uint8

const (
	Insert Verb = iota
	Remove
	Grow
)

// Op is one operation of a victim script. Grow ignores Key.
type Op struct {
	Verb Verb
	Key  int
}

// Script is a victim workload: the operations one goroutine runs, every
// abstract set a crash can leave it in, and the set recovery must
// produce.
type Script struct {
	Ops []Op
	// Reachable holds the empty set and then the set after each op: at
	// a crash point the interrupted op may or may not have taken
	// effect, so the image is measured against all of them. The last
	// entry is where the ops leave the table; recovery settles to it.
	Reachable [][]int
	// Final is the set recovery is checked against. NewScript derives
	// it from the ops; a test can plant a wrong one to prove the check
	// bites.
	Final []int
}

// NewScript builds the Script of ops, tracking the abstract set through
// them.
func NewScript(ops ...Op) Script {
	live := map[int]bool{}
	sc := Script{Ops: ops, Reachable: [][]int{nil}}
	for _, op := range ops {
		switch op.Verb {
		case Insert:
			live[op.Key] = true
		case Remove:
			delete(live, op.Key)
		}
		set := make([]int, 0, len(live))
		for k := range live {
			set = append(set, k)
		}
		sort.Ints(set)
		sc.Reachable = append(sc.Reachable, set)
	}
	sc.Final = sc.Reachable[len(sc.Reachable)-1]
	return sc
}

// OverloadScript is the E23 workload: insert the SlotsPerGroup+1
// smallest keys homing at group 0 (overloading it, forcing eviction into
// the next group), churn the third of them (a flagged remove and a
// backward-shift pull), then grow (a drain).
func OverloadScript(domain, groups int) Script {
	heavy := hihash.KeysHomingAt(domain, groups, 0, hihash.SlotsPerGroup+1)
	var ops []Op
	for _, k := range heavy {
		ops = append(ops, Op{Insert, k})
	}
	churn := heavy[2]
	ops = append(ops, Op{Remove, churn}, Op{Insert, churn}, Op{Verb: Grow})
	return NewScript(ops...)
}

// Run executes the script's ops on s in order.
func (sc Script) Run(s *hihash.Set) {
	for _, op := range sc.Ops {
		switch op.Verb {
		case Insert:
			s.Insert(op.Key)
		case Remove:
			s.Remove(op.Key)
		case Grow:
			s.Grow()
		}
	}
}

// Recover applies the recovery rule to s (see the top of this file) and
// returns how long the settle and the grow took, and the first way
// memory then differs from Final.
func (sc Script) Recover(s *hihash.Set) (time.Duration, error) {
	domain := s.Domain()
	settled := sc.Reachable[len(sc.Reachable)-1]
	start := time.Now()
	for k := 1; k <= domain; k++ {
		if slices.Contains(settled, k) {
			s.Insert(k)
		} else {
			s.Remove(k)
		}
	}
	s.Grow()
	took := time.Since(start)
	for k := 1; k <= domain; k++ {
		if got, want := s.Contains(k), slices.Contains(sc.Final, k); got != want {
			return took, fmt.Errorf("recovery left Contains(%d) = %v, want %v", k, got, want)
		}
	}
	if got, want := s.Snapshot(), hihash.CanonicalSetSnapshot(domain, s.NumGroups(), sc.Final); got != want {
		return took, fmt.Errorf("recovery left non-canonical memory\n got:  %s\n want: %s", got, want)
	}
	if d := CanonicalDistance(s, sc.Final); d != 0 {
		return took, fmt.Errorf("recovered image at distance %d from canonical", d)
	}
	return took, nil
}

// Cell is the outcome of one crash.
type Cell struct {
	Plan Plan
	// Fired reports whether the victim reached the planned occurrence;
	// if not, the script ran to completion.
	Fired bool
	// Distance is the crash image's smallest CanonicalDistance to any
	// reachable set, or -1 while a resize is mid-drain (the image spans
	// two arrays, so no single-geometry layout compares).
	Distance int
	// Recovery is the time the settle and the grow took.
	Recovery time.Duration
	// Err is the recovery check's verdict, nil when memory is canonical.
	Err error
}

// CrashCell runs one crash: sc on a victim over a fresh newSet() table,
// killed at plan, then measured and recovered.
func CrashCell(newSet func() *hihash.Set, sc Script, plan Plan) Cell {
	s := newSet()
	c := Cell{Plan: plan}
	c.Fired = RunKilled(plan, func() { sc.Run(s) })
	c.Distance = MinCanonicalDistance(s, sc.Reachable)
	var err error
	c.Recovery, err = sc.Recover(s)
	if err != nil {
		c.Err = fmt.Errorf("crash at %s: %w", plan, err)
	}
	return c
}

// KillMatrix runs a crash cell for every (steppoint, occurrence) that sc
// reaches, in steppoint order, and returns the cells whose plan fired.
func KillMatrix(newSet func() *hihash.Set, sc Script) []Cell {
	var cells []Cell
	for sp := hihash.Steppoint(0); sp < hihash.NumSteppoints; sp++ {
		for occ := 1; occ <= maxOccurrences; occ++ {
			c := CrashCell(newSet, sc, Plan{Point: sp, Occurrence: occ})
			if !c.Fired {
				break // the script fires sp fewer than occ times
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// RandomSet draws a random subset of {1..domain} (each key with
// probability 1/3), capped at maxLen keys.
func RandomSet(rng *rand.Rand, domain, maxLen int) []int {
	var out []int
	for k := 1; k <= domain; k++ {
		if rng.Intn(3) == 0 {
			out = append(out, k)
		}
	}
	for len(out) > maxLen {
		i := rng.Intn(len(out))
		out = append(out[:i], out[i+1:]...)
	}
	return out
}

// BuildHistory drives s to exactly target through a seed-dependent
// history: random insertion order, a non-target decoy inserted and
// removed around every insert, and remove/re-insert churn of target
// keys. Two calls with different seeds build history twins.
func BuildHistory(s *hihash.Set, target []int, seed int64) {
	domain := s.Domain()
	rng := rand.New(rand.NewSource(seed))
	order := slices.Clone(target)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, k := range order {
		if len(target) < domain {
			decoy := rng.Intn(domain) + 1
			for slices.Contains(target, decoy) {
				decoy = decoy%domain + 1
			}
			s.Insert(decoy)
			s.Insert(k)
			s.Remove(decoy)
		} else {
			s.Insert(k)
		}
		if rng.Intn(2) == 0 {
			s.Remove(k)
			s.Insert(k)
		}
	}
}
