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

// HashSet is the direct-table backend for the sharded set: the same
// ShardOf routing and shard-local key remapping as Set, but each shard is
// an internal/hihash displacing table instead of a universal-construction
// instance. This removes the per-shard serialization point entirely —
// within a shard, operations on keys of different bucket groups also
// proceed in parallel — while the composite memory stays a pure function
// of the abstract key set (each shard is history independent, and the
// partition is fixed at construction, the same composition argument as
// for Set).
//
// Since PR 4 the shards are unbounded: a key that overflows its bucket
// group displaces into neighbouring groups, and a shard whose probe runs
// lengthen grows its group array online, so Insert always succeeds —
// the RspFull plumbing of the bounded table is gone.
type HashSet struct {
	n      int
	domain int
	shards []*hihash.Set
	route  []slot
	keysOf [][]int
}

var _ conc.Applier = (*HashSet)(nil)

// NewHashSet creates a hash-table-backed sharded set for n processes over
// keys {1..domain} split across nShards shards.
func NewHashSet(n, domain, nShards int) *HashSet {
	if domain < 1 {
		panic(fmt.Sprintf("shard: invalid set domain %d", domain))
	}
	if nShards < 1 {
		panic(fmt.Sprintf("shard: invalid shard count %d", nShards))
	}
	s := &HashSet{n: n, domain: domain, shards: make([]*hihash.Set, nShards)}
	s.route, s.keysOf = routing(domain, nShards)
	for sh := range s.shards {
		local := len(s.keysOf[sh])
		if local == 0 {
			local = 1
		}
		s.shards[sh] = hihash.NewDisplaceSet(local, hihash.DefaultGroups(local))
	}
	return s
}

// Name implements conc.Applier.
func (s *HashSet) Name() string { return fmt.Sprintf("sharded-hihash[S=%d]", len(s.shards)) }

// NumShards returns the shard count.
func (s *HashSet) NumShards() int { return len(s.shards) }

// Apply implements conc.Applier: op.Arg is the global key, routed to its
// shard with the shard-local element index.
func (s *HashSet) Apply(pid int, op core.Op) int {
	if op.Arg < 1 || op.Arg > s.domain {
		panic(fmt.Sprintf("shard: set key %d out of range 1..%d", op.Arg, s.domain))
	}
	sl := s.route[op.Arg-1]
	local := core.Op{Name: op.Name, Arg: sl.local}
	if !histats.Observing() {
		return s.shards[sl.shard].Apply(pid, local)
	}
	t := histats.OpStart(op.Name, op.Arg)
	rsp := s.shards[sl.shard].Apply(pid, local)
	hirec.OpEnd(t, rsp)
	return rsp
}

// Insert adds key. It cannot fail: a full bucket group displaces, a full
// shard grows.
func (s *HashSet) Insert(pid, key int) int {
	return s.Apply(pid, core.Op{Name: spec.OpInsert, Arg: key})
}

// Remove deletes key.
func (s *HashSet) Remove(pid, key int) { s.Apply(pid, core.Op{Name: spec.OpRemove, Arg: key}) }

// Contains reports membership of key.
func (s *HashSet) Contains(pid, key int) bool {
	return s.Apply(pid, core.Op{Name: spec.OpLookup, Arg: key}) == 1
}

// Elements returns the sorted members. Per-shard reads are atomic but the
// composite read is not; call it only at quiescence.
func (s *HashSet) Elements() []int {
	var out []int
	for sh, t := range s.shards {
		for _, local := range t.Elements() {
			out = append(out, s.keysOf[sh][local-1])
		}
	}
	sort.Ints(out)
	return out
}

// Snapshot renders the composite memory representation in shard order.
func (s *HashSet) Snapshot() string {
	parts := make([]string, len(s.shards))
	for sh, t := range s.shards {
		parts[sh] = fmt.Sprintf("s%d{%s}", sh, t.Snapshot())
	}
	return strings.Join(parts, " || ")
}

// CanonicalHashSetSnapshot returns the canonical composite representation
// of the abstract state elems for a (domain, nShards) hash-backed sharded
// set whose shards still hold their initial geometry (balanced key sets
// never trigger a grow at the default 2x sizing).
func CanonicalHashSetSnapshot(domain, nShards int, elems []int) string {
	route, keysOf := routing(domain, nShards)
	perShard := make([][]int, nShards)
	for _, key := range elems {
		if key < 1 || key > domain {
			panic(fmt.Sprintf("shard: canonical element %d out of range 1..%d", key, domain))
		}
		sl := route[key-1]
		perShard[sl.shard] = append(perShard[sl.shard], sl.local)
	}
	parts := make([]string, nShards)
	for sh := range parts {
		local := len(keysOf[sh])
		if local == 0 {
			local = 1
		}
		parts[sh] = fmt.Sprintf("s%d{%s}", sh,
			hihash.CanonicalSetSnapshot(local, hihash.DefaultGroups(local), perShard[sh]))
	}
	return strings.Join(parts, " || ")
}
