package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"hiconc/internal/histats"
)

// The traced run replays the workload's stream into each layer in turn,
// one closed-loop phase per layer, and derives the per-layer metrics
// from the phases. The first phase repeats the obj phase with tracing
// off, so the difference between the two is the tracing overhead.
var tracePhases = []struct {
	layer  layer
	traced bool
}{
	{layerObj, false},
	{layerObj, true},
	{layerHihash, true},
	{layerShard, true},
	{layerConc, true},
	{layerSyncMap, true},
	{layerBounded, true},
}

// spanCap bounds the spans each worker logs per phase; later calls of a
// phase are still timed but not logged.
const spanCap = 1 << 13

// span is one sampled call at a layer boundary, logged from the
// benchmark's side of the call. Its parent is its phase's workload span.
type span struct {
	name       uint8 // see spanName
	worker     uint8
	phase      uint8
	start, end int64 // ns since epoch
}

// spanLog is one worker's preallocated span memory.
type spanLog struct {
	spans   []span
	phase   uint8
	dropped uint64
}

func (l *spanLog) add(name, worker uint8, start, end int64) {
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{name, worker, l.phase, start, end})
}

// spanName(3*i+k) names a call of kind k into tracePhases[i]'s layer.
func spanName(i int) string {
	return tracePhases[i/3].layer.name + "." + [...]string{"Contains", "Insert", "Remove"}[i%3]
}

// phaseSpan is a workload span: one traced phase, parent of its calls.
type phaseSpan struct {
	name       string
	start, end int64
}

// traceRun runs the traced phases for total time d and returns the
// per-layer metrics, the phases' results and their spans.
func traceRun(wl *workload, st *streams, d time.Duration, outDir string, fp fingerprint) (metrics, []*phaseResult, error) {
	pd := d / time.Duration(len(tracePhases))
	var (
		results []*phaseResult
		parents []phaseSpan
		logs    []*spanLog
		stats   = map[string]any{}
		rec     = histats.NewRecorder()
	)
	defer histats.Disable()
	for i, ph := range tracePhases {
		ws := newWorkers(wl.domain)
		t := prepare(wl, ph.layer, st, ws)
		if !ph.traced {
			histats.Disable()
		} else {
			histats.EnableWith(rec)
			for _, w := range ws {
				w.spans = &spanLog{spans: make([]span, 0, spanCap), phase: uint8(i)}
				w.layer = uint8(3 * i)
				logs = append(logs, w.spans)
			}
		}
		s0 := rec.Snapshot()
		start := now()
		r := measure(wl, ph.layer, st, ws, t, 1, pd)
		r.stats = rec.Snapshot().Sub(s0)
		if ph.traced {
			parents = append(parents, phaseSpan{ph.layer.name, start, now()})
			stats[ph.layer.name] = r.stats.Map()
		}
		results = append(results, r)
	}
	if err := writeTrace(filepath.Join(outDir, "trace-"+wl.name+".json"), fp, parents, logs); err != nil {
		return nil, nil, err
	}
	if err := writeJSON(filepath.Join(outDir, "histats-"+wl.name+".json"), map[string]any{"fingerprint": fp, "phases": stats}); err != nil {
		return nil, nil, err
	}
	return perLayer(wl, results), results, nil
}

// perLayer derives the per-layer metrics from the traced phases, whose
// order is tracePhases'.
func perLayer(wl *workload, rs []*phaseResult) metrics {
	untraced, ob, hh, sh, cc, sm, bd := rs[0], rs[1], rs[2], rs[3], rs[4], rs[5], rs[6]
	m := metrics{}
	hs := hh.stats.Counters
	upd, lookups := float64(hh.updates()), float64(hh.calls(cLookupMiss, cLookupHit))
	per := func(n uint64, d float64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / d
	}
	m.add("hihash.ns_per_op", hh.nsPerOp(), "ns")
	for _, c := range []struct {
		name string
		cls  class
	}{
		{"hihash.lookup_hit_ns", cLookupHit}, {"hihash.lookup_miss_ns", cLookupMiss},
		{"hihash.insert_new_ns", cInsertNew}, {"hihash.insert_dup_ns", cInsertDup},
		{"hihash.remove_present_ns", cRemovePresent}, {"hihash.remove_absent_ns", cRemoveAbsent},
	} {
		m.addQuantile(c.name, &hh.lat[c.cls], 0.5)
	}
	m.add("hihash.allocs_per_update", per(hh.mallocs, upd), "allocs/update")
	m.add("hihash.cas_fail_per_update", per(hs[histats.CtrHashCASFail], upd), "1/update")
	m.add("hihash.lookup_retry_per_lookup", per(hs[histats.CtrLookupRetry], lookups), "1/lookup")
	m.add("hihash.lookup_help_per_lookup", per(hs[histats.CtrLookupHelp], lookups), "1/lookup")
	m.add("hihash.help_relocate_per_op", per(hs[histats.CtrHelpRelocate], float64(hh.ops)), "1/op")
	m.add("hihash.relocations_per_update", per(hs[histats.CtrMarkSet], upd), "1/update")
	m.add("hihash.restores_per_remove", per(hs[histats.CtrFlagPlaced], float64(hh.calls(cRemoveAbsent, cRemovePresent))), "1/remove")
	m.add("hihash.probe_len_p99", float64(hh.stats.Hists[histats.HistProbeLen].Quantile(0.99)), "groups")
	m.add("hihash.grows_per_cycle", per(hs[histats.CtrGrowPublished], float64(max(hh.cycles, 1))), "1/cycle")
	m.add("hihash.drain_copied_per_insert", per(hs[histats.CtrDrainCopied], float64(hh.calls(cInsertNew, cInsertDup))), "1/insert")
	m.add("hihash.groups_end", float64(hh.groups), "groups")
	// obj wraps hihash in the hash workloads and shard in universal.
	below := hh
	if wl.sharded() {
		below = sh
	}
	m.add("obj.self_ns_per_op", ob.nsPerOp()-below.nsPerOp(), "ns")
	m.add("obj.allocs_per_op", per(untraced.mallocs, float64(untraced.ops)), "allocs/op")
	m.addQuantile("shard.lookup_ns", merged(sh, cLookupMiss, cLookupHit), 0.5)
	m.addQuantile("shard.update_ns", merged(sh, cInsertNew, cInsertDup, cRemoveAbsent, cRemovePresent), 0.5)
	cupd := float64(cc.updates())
	m.add("conc.head_retry_per_update", per(cc.stats.Counters[histats.CtrHeadRetry], cupd), "1/update")
	m.add("conc.help_per_update", per(cc.stats.Counters[histats.CtrUniversalHelp], cupd), "1/update")
	m.add("conc.allocs_per_update", per(cc.mallocs, cupd), "allocs/update")
	m.add("ref.syncmap_ns_per_op", sm.nsPerOp(), "ns")
	m.add("ref.bounded_ns_per_op", bd.nsPerOp(), "ns")
	m.add("ref.bounded_rejects", float64(bd.rejects), "count")
	m.add("hihash.vs_syncmap", hh.nsPerOp()/sm.nsPerOp(), "ratio")
	m.add("trace.overhead_frac", median(untraced.reps)/median(ob.reps)-1, "ratio")
	return m
}

// merged sums r's latency histograms of the given classes.
func merged(r *phaseResult, cs ...class) *latHist {
	h := &latHist{}
	for _, c := range cs {
		h.merge(&r.lat[c])
	}
	return h
}

// writeTrace writes the spans as Chrome trace JSON (chrome://tracing,
// Perfetto): one row of workload spans, one row per worker.
func writeTrace(path string, fp fingerprint, parents []phaseSpan, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	meta, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":%s,"traceEvents":[`, meta)
	us := func(ns int64) string { return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64) }
	sep := ""
	for i, p := range parents {
		fmt.Fprintf(w, `%s{"name":%q,"ph":"X","pid":1,"tid":0,"ts":%s,"dur":%s,"args":{"span":%d}}`,
			sep, p.name, us(p.start), us(p.end-p.start), i)
		sep = ",\n"
	}
	// Phase i of tracePhases is parent span i-1: the untraced phase logs
	// nothing and has no span.
	var dropped uint64
	for _, l := range logs {
		dropped += l.dropped
		for _, s := range l.spans {
			fmt.Fprintf(w, `%s{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"args":{"parent":%d}}`,
				sep, spanName(int(s.name)), s.worker+1, us(s.start), us(s.end-s.start), s.phase-1)
		}
	}
	fmt.Fprintf(w, "],\n\"droppedSpans\":%d}\n", dropped)
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
