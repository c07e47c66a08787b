package experiment

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"hiconc/internal/core"
	"hiconc/internal/faultinject"
	"hiconc/internal/hihash"
	"hiconc/internal/hirec"
	"hiconc/internal/histats"
	"hiconc/internal/linearize"
	"hiconc/internal/obj"
	"hiconc/internal/spec"
	"hiconc/internal/trace"
)

// The checking helpers the families share.

var (
	rd   = core.Op{Name: spec.OpRead}
	inc  = core.Op{Name: spec.OpInc}
	dec  = core.Op{Name: spec.OpDec}
	grow = core.Op{Name: spec.OpGrow}
)

func wr(v int) core.Op   { return core.Op{Name: spec.OpWrite, Arg: v} }
func ins(v int) core.Op  { return core.Op{Name: spec.OpInsert, Arg: v} }
func rem(v int) core.Op  { return core.Op{Name: spec.OpRemove, Arg: v} }
func look(v int) core.Op { return core.Op{Name: spec.OpLookup, Arg: v} }

// recordRun runs body(pid) on n goroutines under a fresh flight recorder
// with capPerLane events per lane and returns the recording.
func recordRun(capPerLane, n int, body func(pid int)) hirec.Recording {
	flight := hirec.NewRecorder(capPerLane)
	histats.Record(flight)
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			body(pid)
		}(pid)
	}
	wg.Wait()
	histats.Record(nil)
	return flight.Snapshot()
}

// recordSetRun records n goroutines each applying opsPer operations
// op(pid, i) to one fresh obj.HashSet over domain.
func recordSetRun(capPerLane, domain, n, opsPer int, op func(pid, i int) core.Op) hirec.Recording {
	s := objSet{obj.NewHashSet(domain)}
	return recordRun(capPerLane, n, func(pid int) {
		for i := 0; i < opsPer; i++ {
			s.Apply(pid, op(pid, i))
		}
	})
}

// checkRecorded extracts a recording's history and machine-checks it
// against the set spec over domain. A failed verdict prints the
// timeline: without the recording that produced it, it cannot be
// debugged.
func checkRecorded(rec hirec.Recording, domain int) ([]linearize.OpRecord, error) {
	recs, err := hirec.Records(rec)
	if err != nil {
		return nil, fmt.Errorf("extraction: %w", err)
	}
	if err := linearize.CheckRecords(spec.NewSet(domain), recs); err != nil {
		fmt.Print(indent(trace.NativeTimeline(rec), "      "))
		return recs, fmt.Errorf("not linearizable: %w", err)
	}
	return recs, nil
}

// corruptErr is the negative control of a recorded check: rec with an
// orphaned response appended must be rejected by extraction, since a
// verdict on a broken history proves nothing. It returns extraction's
// error, nil if extraction wrongly accepted the recording.
func corruptErr(rec hirec.Recording) error {
	corrupt := hirec.Recording{Events: append(slices.Clone(rec.Events), hirec.Event{
		Seq: uint64(len(rec.Events)) + 1, Kind: hirec.KReturn,
		Lane: 63, Index: 9999, Name: spec.OpInsert,
	})}
	_, err := hirec.Records(corrupt)
	return err
}

// twins is the twin-dump adversary: for each of pairs trials, two fresh
// tables are driven by build to the same random set (at most maxLen
// keys) along different histories, and their raw dumps must be
// byte-identical and canonical. A non-nil forced replaces every third
// target, so that share of the pairs exercises a chosen layout.
func twins(what string, pairs, maxLen int, forced []int, newSet func() *hihash.Set, build func(*hihash.Set, []int, int64)) error {
	for trial := 0; trial < pairs; trial++ {
		a, b := newSet(), newSet()
		rng := rand.New(rand.NewSource(int64(trial)))
		target := faultinject.RandomSet(rng, a.Domain(), maxLen)
		if forced != nil && trial%3 == 0 {
			target = forced
		}
		build(a, target, int64(1000+trial))
		build(b, target, int64(2000+trial))
		if !bytes.Equal(a.RawDump(), b.RawDump()) {
			return fmt.Errorf("%s: trial %d: same state %v, different raw dumps", what, trial, target)
		}
		if d := faultinject.CanonicalDistance(a, target); d != 0 {
			return fmt.Errorf("%s: trial %d: state %v at distance %d from canonical", what, trial, target, d)
		}
	}
	return nil
}
