package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// workers is the closed loop's client count: one worker goroutine per
// core of the 2-core box the benchmark was sized on (GOMAXPROCS is pinned
// to it, so runs on bigger machines measure the same shape).
const workers = 2

// streamLen is the length of each worker's cyclic call stream in the
// steady workloads; the stream is replayed from the start when a run
// outlasts it, and the workers' models carry over, so answers stay exact.
const streamLen = 1 << 19

// lookupSampleEvery sets the timed sample of lookups: one in this many is
// bracketed by clock reads (a fixed, seeded choice made at generation).
// Every update is timed; a lookup is short enough that two clock reads
// per call would dominate its cost.
const lookupSampleEvery = 8

// kind is an operation type.
type kind uint8

const (
	kLookup kind = iota
	kInsert
	kRemove
)

// op is one pre-generated call: the key in the low 16 bits, the kind in
// bits 16-17 and, in bit 18, whether the call is in the timed sample.
type op uint32

func mkOp(k kind, key int, timed bool) op {
	o := op(key) | op(k)<<16
	if timed {
		o |= 1 << 18
	}
	return o
}

func (o op) key() int    { return int(o & 0xFFFF) }
func (o op) kind() kind  { return kind(o >> 16 & 3) }
func (o op) timed() bool { return o&(1<<18) != 0 }

// owner returns the worker that owns key. Each key is only ever touched
// by its owner, so each worker's sequential model predicts every answer
// exactly while both workers still share group words and probe runs.
func owner(key int) int { return key % workers }

// workload is one input family of the benchmark.
type workload struct {
	name string
	why  string
	// domain is the key range {1..domain}.
	domain int
	// groups is the hash table's initial group count; in universal it
	// is the geometry the traced run's hash layers replay the stream on.
	groups int
	// shards is the shard count of the obj.ShardedSet (universal).
	shards int
	// preload keys are inserted during set-up.
	preload int
	// zipf is the exponent of the key popularity (steady workloads).
	zipf float64
	// lookup and insert are the call mix; removes take the rest.
	lookup, insert float64
	// cycle marks grow-drain: a fresh table per cycle, filled with keys
	// 1..fill and then drained by 7/8.
	cycle bool
	fill  int
}

// sharded reports whether the workload runs obj.ShardedSet.
func (wl *workload) sharded() bool { return wl.shards > 0 }

var workloads = []workload{
	{
		name: "read-hot", domain: 16384, groups: 2048, preload: 4096, zipf: 1.2,
		lookup: 0.999, insert: 0.0005,
		why: "obj.HashSet at 99.9% lookups: the read path and the obj observer sites do nearly all the work",
	},
	{
		name: "churn", domain: 16384, groups: 8192, preload: 8192, zipf: 1.01,
		lookup: 0.10, insert: 0.45,
		why: "obj.HashSet at 90% updates, half the domain live: the displacing write path (placement, relocation, sweep, restore)",
	},
	{
		// Filling 3/4 of the domain ends every cycle's growth at 8192
		// groups. Filling all of it leaves the last doubling (to 16384) to
		// probe-run timing in about half the cycles, which makes a
		// remove's cost, a sweep of the table, bimodal from run to run.
		name: "grow-drain", domain: 16384, groups: 1024, fill: 12288, lookup: 0.10, cycle: true,
		why: "fresh obj.HashSet per cycle filled with 3/4 of the domain then drained by 7/8: the only workload that resizes while measured",
	},
	{
		name: "universal", domain: 4096, groups: 2048, shards: 16, preload: 1024, zipf: 1.01,
		lookup: 0.50, insert: 0.25,
		why: "obj.ShardedSet over 16 conc.Universal shards: Algorithm 5, which the hash workloads never call",
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// streams is a workload's generated input, made from the seed and never
// timed.
type streams struct {
	// preload lists the keys inserted during set-up, in insertion order.
	preload []int
	// ops holds each worker's cyclic call stream (steady workloads).
	ops [workers][]op
	// wl and seed generate grow-drain's cycles, one fresh cycle at a
	// time between measured cycles (see cycle).
	wl   *workload
	seed int64
}

// rngFor derives a random source from the seed, the workload name and a
// stream index, so the workloads and cycles of one seed draw independent
// inputs.
func rngFor(wl *workload, seed int64, index int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", wl.name, index)
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// generate builds the workload's streams for seed. The same seed gives the
// same streams.
func generate(wl *workload, seed int64) *streams {
	st := &streams{wl: wl, seed: seed}
	if wl.cycle {
		return st
	}
	rng := rngFor(wl, seed, 0)
	for _, k := range rng.Perm(wl.domain)[:wl.preload] {
		st.preload = append(st.preload, k+1)
	}
	// Popularity rank r maps to key rank[r]: the hot keys are scattered
	// over the domain rather than clustered at its low end.
	rank := rng.Perm(wl.domain)
	zipf := rand.NewZipf(rng, wl.zipf, 1, uint64(wl.domain-1))
	for w := range st.ops {
		s := make([]op, 0, streamLen)
		for len(s) < streamLen {
			key := rank[zipf.Uint64()] + 1
			if owner(key) != w {
				continue
			}
			s = append(s, mixOp(wl, rng, key))
		}
		st.ops[w] = s
	}
	return st
}

// cycle is one grow-drain cycle: a fill phase and then a drain phase,
// each a stream per worker. Both workers start each phase together.
type cycle [2][workers][]op

// cycle returns grow-drain cycle i. Every cycle draws a fresh insertion
// order: a cycle's growth depends on it, so a run averages over as many
// orders as it runs cycles.
func (st *streams) cycle(i int) *cycle {
	rng := rngFor(st.wl, st.seed, i+1)
	var c cycle
	for w := 0; w < workers; w++ {
		c[0][w], c[1][w] = cycleStreams(st.wl, w, rng)
	}
	return &c
}

// mixOp draws one call on key from the workload's mix.
func mixOp(wl *workload, rng *rand.Rand, key int) op {
	u := rng.Float64()
	switch {
	case u < wl.lookup:
		return mkOp(kLookup, key, rng.Intn(lookupSampleEvery) == 0)
	case u < wl.lookup+wl.insert:
		return mkOp(kInsert, key, true)
	default:
		return mkOp(kRemove, key, true)
	}
}

// cycleStreams is worker w's share of one grow-drain cycle: fill inserts
// its keys of 1..wl.fill in random order with lookups of random such keys
// mixed in (wl.lookup of the calls); drain removes a random 7/8 of them.
func cycleStreams(wl *workload, w int, rng *rand.Rand) (fill, drain []op) {
	var own []int
	for k := 1; k <= wl.fill; k++ {
		if owner(k) == w {
			own = append(own, k)
		}
	}
	for _, i := range rng.Perm(len(own)) {
		for rng.Float64() < wl.lookup {
			fill = append(fill, mkOp(kLookup, own[rng.Intn(len(own))], rng.Intn(lookupSampleEvery) == 0))
		}
		fill = append(fill, mkOp(kInsert, own[i], true))
	}
	for _, i := range rng.Perm(len(own))[:len(own)*7/8] {
		drain = append(drain, mkOp(kRemove, own[i], true))
	}
	return fill, drain
}
