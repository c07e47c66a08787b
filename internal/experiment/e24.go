package experiment

import (
	"errors"
	"fmt"
	"time"

	"hiconc/internal/hihash"
	"hiconc/internal/histats"
	"hiconc/internal/shard"
	"hiconc/internal/trace"
)

// e24Sites is the per-operation hot-site budget of a raw-set update,
// every disabled site it passes: one Step and one probe-length Observe
// (lookups pass none). e24Path runs copies of them, the E24 gate's
// price of one operation, twelve sites per iteration so that the price
// does not hinge on where one short loop falls against a code line.
const e24Sites = 2

func e24Path(copies int) {
	for i := 0; i < copies; i += 6 {
		histats.Step(histats.CtrDestWritten)
		histats.Observe(histats.HistProbeLen, 1)
		histats.Step(histats.CtrDestWritten)
		histats.Observe(histats.HistProbeLen, 1)
		histats.Step(histats.CtrDestWritten)
		histats.Observe(histats.HistProbeLen, 1)
		histats.Step(histats.CtrDestWritten)
		histats.Observe(histats.HistProbeLen, 1)
		histats.Step(histats.CtrDestWritten)
		histats.Observe(histats.HistProbeLen, 1)
		histats.Step(histats.CtrDestWritten)
		histats.Observe(histats.HistProbeLen, 1)
	}
}

// measureE24 measures the histats metrics layer itself: a
// disabled-vs-enabled A/B over the E21/E22-shaped workloads with the
// gated disabled-path overhead, the protocol-event distributions the
// enabled run gathers, and the raw-dump identity check that metrics stay
// outside the HI boundary.
func measureE24(c *Config) error {
	fmt.Println("=== E24: observability — the cost of the metrics layer (internal/histats)")
	const n, domain, mapKeys = 8, 8192, 256
	histats.Disable()

	// The displacing set (the hihash hot path, mirroring E22's load=0.5
	// row) and the combining map (the universal-construction hot path).
	setMixes := zipfSet(n, domain, 1.01, 0.1)
	runSet := func() time.Duration {
		return runPerKey(preload(hihash.NewDisplaceSet(domain, domain/8), domain/4), n, c.Ops/n, setMixes)
	}
	mapMixes := zipfMap(n, mapKeys, 1.5, 0.1)
	runMap := func() time.Duration {
		return runPerKey(shard.NewCombiningMap(n, mapKeys, 4), n, c.Ops/n, mapMixes)
	}
	var r *histats.Recorder
	var snap *histats.Snapshot
	computed := c.observerAB("E24", "enabled", e24Sites, e24Path, n,
		func() { r = histats.Enable() },
		func() { snap = r.Snapshot(); histats.Disable() },
		abRun{"set", runSet}, abRun{"map", runMap})

	// What the enabled runs gathered: the retry and probe-length
	// distributions of the protocol under these workloads.
	fmt.Println("\n    protocol events of the enabled runs:")
	fmt.Print(indent(trace.StatsTable(snap, nil), "    "))
	for ctr := histats.Counter(0); ctr < histats.NumCounters; ctr++ {
		if v := snap.Counters[ctr]; v > 0 {
			c.Rec.Record("E24", "events/"+ctr.String(), "count", float64(v))
		}
	}
	for _, h := range []histats.Hist{histats.HistProbeLen, histats.HistRelocDist, histats.HistBatchSize} {
		hs := &snap.Hists[h]
		if hs.Count == 0 {
			continue
		}
		c.Rec.Record("E24", "dist/"+h.String()+"/p50", "value", float64(hs.Quantile(0.50)))
		c.Rec.Record("E24", "dist/"+h.String()+"/p99", "value", float64(hs.Quantile(0.99)))
	}

	fmt.Println()
	boundary := c.dumpBoundary("E24", "metrics", func() { histats.Enable() }, func() { histats.Disable() })
	return errors.Join(boundary, c.overheadGate(computed))
}
