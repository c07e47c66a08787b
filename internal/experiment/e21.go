package experiment

import (
	"errors"
	"fmt"

	"hiconc/internal/conc"
	"hiconc/internal/core"
	"hiconc/internal/hicheck"
	"hiconc/internal/hihash"
	"hiconc/internal/shard"
	"hiconc/internal/spec"
)

func checkE21(c *Config) error {
	// The direct hash table: every update is one CAS on a bucket group
	// whose slots sit in canonical priority order, so the simulated twin
	// must satisfy the strongest class — perfect HI — plus
	// linearizability, over every explored interleaving.
	p := hihash.Params{T: 3, G: 2, B: 1}
	h := hihash.NewSimHarness(p, 2, hihash.VariantCanonical)
	canon, err := hicheck.BuildCanon(h, 3, 2000)
	if err != nil {
		return err
	}
	scripts := [][][]core.Op{
		{{ins(1)}, {ins(2)}},
		{{ins(1), rem(1)}, {ins(2)}},
		{{ins(1), look(2)}, {ins(3)}},
	}
	n, err := hicheck.CheckExhaustive(canon, h, scripts, hicheck.Perfect, c.depth(14, 16), 1_000_000, true)
	if err != nil {
		return fmt.Errorf("%s: %w", h.Name, err)
	}
	fmt.Printf("    %-44s PASS (%d interleavings exhaustively)\n", h.Name, n)
	if err := hicheck.CheckRandom(canon, h, scripts, hicheck.Perfect, c.depth(200, 1000), 23, 3000, true); err != nil {
		return fmt.Errorf("%s fuzz: %w", h.Name, err)
	}
	fmt.Printf("    %-44s PASS (random-schedule fuzz)\n", h.Name)

	// The append-order ablation must be refuted already sequentially.
	ha := hihash.NewSimHarness(hihash.Params{T: 3, G: 2, B: 2}, 2, hihash.VariantAppend)
	_, err = hicheck.BuildCanon(ha, 2, 2000)
	var v *hicheck.SeqHIViolation
	if !errors.As(err, &v) {
		return fmt.Errorf("append ablation: expected a sequential HI violation, got %v", err)
	}
	fmt.Printf("    append-order ablation REFUTED(expected): %v\n", v)
	return nil
}

// insertRejectRate replays the mixes once, sequentially, on a fresh
// instance and returns the fraction of inserts answered with
// hihash.RspFull. Rejected inserts are cheaper than real ones (one load,
// no CAS), so the rate qualifies the bounded tables' ns/op numbers; the
// replay keeps the counting off the timed path.
func insertRejectRate(a conc.Applier, mixes [][]core.Op) float64 {
	inserts, fulls := 0, 0
	for pid, ops := range mixes {
		for _, op := range ops {
			rsp := a.Apply(pid, op)
			if op.Name == spec.OpInsert {
				inserts++
				if rsp == hihash.RspFull {
					fulls++
				}
			}
		}
	}
	if inserts == 0 {
		return 0
	}
	return float64(fulls) / float64(inserts)
}

// measureE21 times the HICHT direct hash table against the sharded
// universal construction and a sync.Map baseline, across load factors
// and Zipf skews.
func measureE21(c *Config) error {
	fmt.Println("=== E21: the HICHT direct hash table vs the universal-construction path")
	const n, domain, mapKeys = 8, 16384, 256

	fmt.Println("\n    set, 10% lookups, 8 goroutines (ns/op):")
	fmt.Printf("%10s %16s %16s %18s %16s %12s\n",
		"zipf", "hihash load=0.5", "hihash load=1.0", "sharded-universal", "sharded-hihash", "sync.Map")
	type rejectRow struct {
		zipf       float64
		half, full float64
	}
	var rejects []rejectRow
	for _, s := range []float64{1.01, 1.5} {
		mixes := zipfSet(n, domain, s, 0.1)
		tag := fmt.Sprintf("set/zipf=%.2f", s)
		fmt.Printf("%10.2f %16s %16s %18s %16s %12s\n", s,
			c.measurePerKey("E21", tag+"/hihash/load=0.5", hihash.NewSet(domain, domain/2), n, mixes),
			c.measurePerKey("E21", tag+"/hihash/load=1.0", hihash.NewSet(domain, domain/4), n, mixes),
			c.measurePerKey("E21", tag+"/sharded-universal/S=16", shard.NewSet(n, domain, 16), n, mixes),
			c.measurePerKey("E21", tag+"/sharded-hihash/S=16", shard.NewHashSet(n, domain, 16), n, mixes),
			c.measurePerKey("E21", tag+"/syncmap", conc.NewSyncMapSet(), n, mixes))
		row := rejectRow{
			zipf: s,
			half: insertRejectRate(hihash.NewSet(domain, domain/2), mixes),
			full: insertRejectRate(hihash.NewSet(domain, domain/4), mixes),
		}
		rejects = append(rejects, row)
		c.Rec.Record("E21", tag+"/hihash/load=0.5/reject", "reject-rate", row.half)
		c.Rec.Record("E21", tag+"/hihash/load=1.0/reject", "reject-rate", row.full)
	}
	fmt.Println("\n    insert rejection rate of the bounded tables (RspFull; a rejected")
	fmt.Println("    insert is one load, cheaper than a real insert — qualify ns/op with")
	fmt.Println("    it; sharded-hihash displaces since E22 and never rejects):")
	for _, r := range rejects {
		fmt.Printf("      zipf=%.2f: load=0.5 %.2f%%, load=1.0 %.2f%%\n",
			r.zipf, 100*r.half, 100*r.full)
	}

	fmt.Println("\n    multi-counter map, 10% reads, Zipf s=1.2 (ns/op):")
	fmt.Printf("%16s %18s %22s\n", "hihash-map", "sharded-universal", "sharded-combining")
	mapMixes := zipfMap(n, mapKeys, 1.2, 0.1)
	fmt.Printf("%16s %18s %22s\n",
		c.measurePerKey("E21", "map/hihash", hihash.NewMap(mapKeys, mapKeys/4), n, mapMixes),
		c.measurePerKey("E21", "map/sharded-universal/S=16", shard.NewMap(n, mapKeys, 16), n, mapMixes),
		c.measurePerKey("E21", "map/sharded-combining/S=16", shard.NewCombiningMap(n, mapKeys, 16), n, mapMixes))
	fmt.Println("    (the direct table has no serialization point at all: lookups are one")
	fmt.Println("     atomic load, updates one CAS on the key's bucket group — every")
	fmt.Println("     relocation the canonical layout needs is folded into that CAS)")
	return nil
}
