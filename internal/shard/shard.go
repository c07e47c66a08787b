// Package shard composes independent instances of the history-independent
// universal construction into hash-partitioned, scale-out objects.
//
// Algorithm 5 serializes every update through a single R-LLSC head, so one
// instance is a sequential bottleneck no matter how many processes call it.
// A sharded object splits the key space over S independent instances:
// operation on key k routes to shard ShardOf(k, S), so updates on keys of
// different shards proceed in parallel and throughput scales with S until
// the workload's key skew concentrates on one shard.
//
// Sharding preserves history independence. The composite memory
// representation is the tuple of shard representations; each shard is
// state-quiescent HI (Theorem 32), so at any point with no pending
// state-changing operation each shard's memory is the canonical function of
// its sub-state — and the sub-states are themselves a function of the
// composite abstract state (the partition is fixed at construction). The
// composite representation is therefore canonical in the abstract state,
// which is exactly state-quiescent HI for the composite object. The same
// argument is machine-checked through internal/hicheck by the lock-step
// simulator harness in this package (NewSimSetHarness).
//
// Each shard may independently enable operation combining
// (conc.NewCombiningUniversal), stacking the two scale mechanisms: sharding
// removes cross-key serialization, combining collapses same-shard
// contention into batched SCs.
package shard

import (
	"fmt"
	"sort"
	"strings"

	"hiconc/internal/conc"
	"hiconc/internal/core"
	"hiconc/internal/hihash"
	"hiconc/internal/hirec"
	"hiconc/internal/histats"
	"hiconc/internal/spec"
)

// ShardOf returns the shard (0..nShards-1) responsible for key. It is
// the same splitmix64-style mixer as hihash.GroupOf (delegated, so the
// two can never drift apart), spreading contiguous key ranges evenly.
func ShardOf(key, nShards int) int {
	return hihash.GroupOf(key, nShards)
}

// slot locates one key: its shard and its element index inside the shard's
// 64-element set object.
type slot struct {
	shard int
	local int
}

// Set is a hash-partitioned, wait-free, state-quiescent history-independent
// set over {1..Domain}: S independent universal-construction big sets, each
// holding the keys that hash to it. Sharding scales the set twice over: it
// removes cross-shard serialization, and it divides the per-update state
// copy (an immutable multi-word bitmask) by the shard count.
type Set struct {
	n       int
	domain  int
	shards  []*conc.Universal
	route   []slot  // route[key-1] locates key
	keysOf  [][]int // keysOf[shard][local-1] is the global key
	combine bool
}

// routing assigns every key of {1..domain} a shard and a shard-local
// element index (in increasing key order), as a pure function of
// (domain, nShards).
func routing(domain, nShards int) (route []slot, keysOf [][]int) {
	route = make([]slot, domain)
	keysOf = make([][]int, nShards)
	for key := 1; key <= domain; key++ {
		sh := ShardOf(key, nShards)
		keysOf[sh] = append(keysOf[sh], key)
		route[key-1] = slot{shard: sh, local: len(keysOf[sh])}
	}
	return route, keysOf
}

// shardWords returns the bitmask length of a shard holding nKeys keys.
func shardWords(nKeys int) int {
	if nKeys == 0 {
		return 1
	}
	return (nKeys + 63) / 64
}

var _ conc.Applier = (*Set)(nil)

// NewSet creates a sharded set for n processes over keys {1..domain} split
// across nShards shards.
func NewSet(n, domain, nShards int) *Set {
	return newSet(n, domain, nShards, false)
}

// NewCombiningSet creates a sharded set whose shards additionally combine
// commuting announced operations under contention.
func NewCombiningSet(n, domain, nShards int) *Set {
	return newSet(n, domain, nShards, true)
}

func newSet(n, domain, nShards int, combine bool) *Set {
	if domain < 1 {
		panic(fmt.Sprintf("shard: invalid set domain %d", domain))
	}
	if nShards < 1 {
		panic(fmt.Sprintf("shard: invalid shard count %d", nShards))
	}
	s := &Set{
		n:       n,
		domain:  domain,
		shards:  make([]*conc.Universal, nShards),
		combine: combine,
	}
	s.route, s.keysOf = routing(domain, nShards)
	for sh := range s.shards {
		o := conc.BigSetObj{Words: shardWords(len(s.keysOf[sh]))}
		if combine {
			s.shards[sh] = conc.NewCombiningUniversal(o, n)
		} else {
			s.shards[sh] = conc.NewUniversal(o, n)
		}
	}
	return s
}

// Name implements conc.Applier.
func (s *Set) Name() string {
	if s.combine {
		return fmt.Sprintf("sharded-set-combining[S=%d]", len(s.shards))
	}
	return fmt.Sprintf("sharded-set[S=%d]", len(s.shards))
}

// NumShards returns the shard count.
func (s *Set) NumShards() int { return len(s.shards) }

// Apply implements conc.Applier: op.Arg is the global key; the operation is
// routed to its shard with the shard-local element index.
func (s *Set) Apply(pid int, op core.Op) int {
	if op.Arg < 1 || op.Arg > s.domain {
		panic(fmt.Sprintf("shard: set key %d out of range 1..%d", op.Arg, s.domain))
	}
	sl := s.route[op.Arg-1]
	local := core.Op{Name: op.Name, Arg: sl.local}
	if !histats.Observing() {
		return s.shards[sl.shard].Apply(pid, local)
	}
	// The flight recorder sees the caller's view of the operation (the
	// global key), not the shard-local remapping.
	t := histats.Invoke(histats.Op{Ctr: histats.CtrShardOp, Name: op.Name}, op.Arg)
	histats.Observe(histats.HistShardIndex, uint64(sl.shard))
	rsp := s.shards[sl.shard].Apply(pid, local)
	hirec.OpEnd(t, rsp)
	return rsp
}

// Insert adds key on behalf of process pid.
func (s *Set) Insert(pid, key int) { s.Apply(pid, core.Op{Name: spec.OpInsert, Arg: key}) }

// Remove deletes key on behalf of process pid.
func (s *Set) Remove(pid, key int) { s.Apply(pid, core.Op{Name: spec.OpRemove, Arg: key}) }

// Contains reports membership of key on behalf of process pid.
func (s *Set) Contains(pid, key int) bool {
	return s.Apply(pid, core.Op{Name: spec.OpLookup, Arg: key}) == 1
}

// Elements returns the sorted members. The per-shard reads are atomic but
// the composite read is not; call it only at quiescence (as in tests and
// HI checks).
func (s *Set) Elements() []int {
	var out []int
	for sh, u := range s.shards {
		mask := u.State().([]uint64)
		for local, key := range s.keysOf[sh] {
			if mask[local/64]&(1<<uint(local%64)) != 0 {
				out = append(out, key)
			}
		}
	}
	sort.Ints(out)
	return out
}

// Snapshot renders the composite memory representation: every shard's
// representation in shard order.
func (s *Set) Snapshot() string {
	return joinShardSnapshots(s.shards)
}

// CanonicalSetSnapshot returns the canonical composite representation of
// the abstract state elems for an (n, domain, nShards) sharded set: each
// shard canonically represents its own sub-state.
func CanonicalSetSnapshot(n, domain, nShards int, elems []int) string {
	route, keysOf := routing(domain, nShards)
	masks := make([][]uint64, nShards)
	for sh := range masks {
		masks[sh] = make([]uint64, shardWords(len(keysOf[sh])))
	}
	for _, key := range elems {
		if key < 1 || key > domain {
			panic(fmt.Sprintf("shard: canonical element %d out of range 1..%d", key, domain))
		}
		sl := route[key-1]
		masks[sl.shard][(sl.local-1)/64] |= 1 << uint((sl.local-1)%64)
	}
	parts := make([]string, nShards)
	for sh := range parts {
		o := conc.BigSetObj{Words: len(masks[sh])}
		parts[sh] = fmt.Sprintf("s%d{%s}", sh, conc.CanonicalSnapshot(o, n, masks[sh]))
	}
	return strings.Join(parts, " || ")
}

// Map is a hash-partitioned, wait-free, state-quiescent history-independent
// multi-counter (a map from keys {1..Keys} to int counts): S independent
// universal-construction multi-counters, each holding the keys that hash to
// it.
type Map struct {
	n       int
	keys    int
	shards  []*conc.Universal
	combine bool
}

var _ conc.Applier = (*Map)(nil)

// NewMap creates a sharded multi-counter for n processes over keys
// {1..keys} split across nShards shards.
func NewMap(n, keys, nShards int) *Map {
	return newMap(n, keys, nShards, false)
}

// NewCombiningMap creates a sharded multi-counter whose shards additionally
// combine commuting announced operations under contention.
func NewCombiningMap(n, keys, nShards int) *Map {
	return newMap(n, keys, nShards, true)
}

func newMap(n, keys, nShards int, combine bool) *Map {
	if keys < 1 {
		panic(fmt.Sprintf("shard: invalid key count %d", keys))
	}
	if nShards < 1 {
		panic(fmt.Sprintf("shard: invalid shard count %d", nShards))
	}
	m := &Map{n: n, keys: keys, shards: make([]*conc.Universal, nShards), combine: combine}
	for sh := range m.shards {
		if combine {
			m.shards[sh] = conc.NewCombiningUniversal(conc.MultiCounterObj{}, n)
		} else {
			m.shards[sh] = conc.NewUniversal(conc.MultiCounterObj{}, n)
		}
	}
	return m
}

// Name implements conc.Applier.
func (m *Map) Name() string {
	if m.combine {
		return fmt.Sprintf("sharded-map-combining[S=%d]", len(m.shards))
	}
	return fmt.Sprintf("sharded-map[S=%d]", len(m.shards))
}

// NumShards returns the shard count.
func (m *Map) NumShards() int { return len(m.shards) }

// Apply implements conc.Applier: op.Arg is the key, kept global — each
// shard's multi-counter state is keyed by the original key.
func (m *Map) Apply(pid int, op core.Op) int {
	if op.Arg < 1 || op.Arg > m.keys {
		panic(fmt.Sprintf("shard: map key %d out of range 1..%d", op.Arg, m.keys))
	}
	sh := ShardOf(op.Arg, len(m.shards))
	if !histats.Observing() {
		return m.shards[sh].Apply(pid, op)
	}
	t := histats.Invoke(histats.Op{Ctr: histats.CtrShardOp, Name: op.Name}, op.Arg)
	histats.Observe(histats.HistShardIndex, uint64(sh))
	rsp := m.shards[sh].Apply(pid, op)
	hirec.OpEnd(t, rsp)
	return rsp
}

// Inc increments key's count on behalf of pid, returning the previous count.
func (m *Map) Inc(pid, key int) int { return m.Apply(pid, core.Op{Name: spec.OpInc, Arg: key}) }

// Dec decrements key's count on behalf of pid, returning the previous count.
func (m *Map) Dec(pid, key int) int { return m.Apply(pid, core.Op{Name: spec.OpDec, Arg: key}) }

// Get returns key's current count on behalf of pid.
func (m *Map) Get(pid, key int) int { return m.Apply(pid, core.Op{Name: spec.OpRead, Arg: key}) }

// Counts returns the nonzero counts keyed by key. The per-shard reads are
// atomic but the composite read is not; call it only at quiescence.
func (m *Map) Counts() map[int]int {
	out := map[int]int{}
	for _, u := range m.shards {
		for _, kv := range u.State().([]conc.KV) {
			out[kv.K] = kv.V
		}
	}
	return out
}

// Snapshot renders the composite memory representation.
func (m *Map) Snapshot() string {
	return joinShardSnapshots(m.shards)
}

// CanonicalMapSnapshot returns the canonical composite representation of
// the abstract state counts for an (n, keys, nShards) sharded multi-counter.
func CanonicalMapSnapshot(n, keys, nShards int, counts map[int]int) string {
	perShard := make([][]conc.KV, nShards)
	sorted := make([]int, 0, len(counts))
	for k := range counts {
		if k < 1 || k > keys {
			panic(fmt.Sprintf("shard: canonical key %d out of range 1..%d", k, keys))
		}
		if counts[k] != 0 {
			sorted = append(sorted, k)
		}
	}
	sort.Ints(sorted)
	for _, k := range sorted {
		sh := ShardOf(k, nShards)
		perShard[sh] = append(perShard[sh], conc.KV{K: k, V: counts[k]})
	}
	parts := make([]string, nShards)
	for sh := range parts {
		var st any = []conc.KV(nil)
		if len(perShard[sh]) > 0 {
			st = perShard[sh]
		}
		parts[sh] = fmt.Sprintf("s%d{%s}", sh, conc.CanonicalSnapshot(conc.MultiCounterObj{}, n, st))
	}
	return strings.Join(parts, " || ")
}

// joinShardSnapshots renders per-shard representations in shard order.
func joinShardSnapshots(shards []*conc.Universal) string {
	parts := make([]string, len(shards))
	for sh, u := range shards {
		parts[sh] = fmt.Sprintf("s%d{%s}", sh, u.Snapshot())
	}
	return strings.Join(parts, " || ")
}
