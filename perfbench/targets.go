package main

import (
	"sync"

	"hiconc/internal/conc"
	"hiconc/internal/core"
	"hiconc/internal/hihash"
	"hiconc/internal/obj"
	"hiconc/internal/shard"
	"hiconc/internal/spec"
)

// target is one layer's set as the closed loop calls it; w is the calling
// worker (the pid of the handle-based layers).
type target interface {
	// insert returns 0, or hihash.RspFull when the bounded table refuses.
	insert(w, key int) int
	remove(w, key int)
	contains(w, key int) bool
}

// checked is a target whose final state the run can check at quiescence.
type checked interface {
	target
	elements() []int
	// canonical reports whether memory is the canonical layout of elems
	// for the target's geometry.
	canonical(elems []int) bool
}

// table is a hash-table target: its geometry can be read and settled.
type table interface {
	checked
	numGroups() int
	grow()
}

// sized is a target that can report the bytes of its set representation
// (group words, or shard bitmask words).
type sized interface {
	bytes() int
}

// layer names one target constructor; the traced run replays a
// workload's stream into each layer in turn.
type layer struct {
	name  string
	build func(wl *workload) target
}

// Layers, by the module each calls into.
var (
	layerObj = layer{"obj", func(wl *workload) target {
		if wl.sharded() {
			s := obj.NewShardedSet(workers, wl.domain, wl.shards)
			t := &shardedObj{s: s, domain: wl.domain, shards: wl.shards}
			for w := range t.h {
				t.h[w] = s.Handle(w)
			}
			return t
		}
		return &hashObj{h: obj.NewHashSetWithGroups(wl.domain, wl.groups), domain: wl.domain}
	}}
	layerHihash = layer{"hihash", func(wl *workload) target {
		return &hiSet{s: hihash.NewDisplaceSet(wl.domain, wl.groups)}
	}}
	layerShard = layer{"shard", func(wl *workload) target {
		return &shardSet{s: shard.NewSet(workers, wl.domain, shardCount(wl)), domain: wl.domain}
	}}
	layerConc    = layer{"conc", func(wl *workload) target { return newUniversals(wl.domain, shardCount(wl)) }}
	layerSyncMap = layer{"ref.syncmap", func(*workload) target { return syncMap{conc.NewSyncMapSet()} }}
	// The bounded table cannot grow, so it runs at the displacing table's
	// default geometry (twice the domain in slots) whatever the
	// workload's start; its refused inserts are counted, not hidden.
	layerBounded = layer{"ref.bounded", func(wl *workload) target {
		return &hiSet{s: hihash.NewSet(wl.domain, hihash.DefaultGroups(wl.domain))}
	}}
)

// shardCount is the shard count the shard and conc layers use: the
// workload's own, or the universal workload's 16 when replaying a hash
// workload's stream.
func shardCount(wl *workload) int {
	if wl.sharded() {
		return wl.shards
	}
	return 16
}

type hashObj struct {
	h      *obj.HashSet
	domain int
}

func (t *hashObj) insert(_, key int) int    { t.h.Insert(key); return 0 }
func (t *hashObj) remove(_, key int)        { t.h.Remove(key) }
func (t *hashObj) contains(_, key int) bool { return t.h.Contains(key) }
func (t *hashObj) elements() []int          { return t.h.Elements() }
func (t *hashObj) numGroups() int           { return t.h.NumGroups() }
func (t *hashObj) grow()                    { t.h.Grow() }
func (t *hashObj) bytes() int               { return 8 * t.h.NumGroups() }
func (t *hashObj) canonical(elems []int) bool {
	return t.h.Snapshot() == hihash.CanonicalSetSnapshot(t.domain, t.h.NumGroups(), elems)
}

type shardedObj struct {
	s      *obj.ShardedSet
	h      [workers]*obj.ShardedSetHandle
	domain int
	shards int
}

func (t *shardedObj) insert(w, key int) int    { t.h[w].Insert(key); return 0 }
func (t *shardedObj) remove(w, key int)        { t.h[w].Remove(key) }
func (t *shardedObj) contains(w, key int) bool { return t.h[w].Contains(key) }
func (t *shardedObj) elements() []int          { return t.s.Elements() }
func (t *shardedObj) canonical(elems []int) bool {
	return t.s.Snapshot() == shard.CanonicalSetSnapshot(workers, t.domain, t.shards, elems)
}

// bytes is the size of the shards' bitmask states: each shard holds one
// bit per key routed to it, in 64-bit words.
func (t *shardedObj) bytes() int {
	n := make([]int, t.shards)
	for key := 1; key <= t.domain; key++ {
		n[shard.ShardOf(key, t.shards)]++
	}
	b := 0
	for _, c := range n {
		b += 8 * ((c + 63) / 64)
	}
	return b
}

// hiSet is a bare hihash.Set: the displacing table, or the bounded one
// whose inserts into a full home group are refused.
type hiSet struct{ s *hihash.Set }

func (t *hiSet) insert(_, key int) int    { return t.s.Insert(key) }
func (t *hiSet) remove(_, key int)        { t.s.Remove(key) }
func (t *hiSet) contains(_, key int) bool { return t.s.Contains(key) }
func (t *hiSet) elements() []int          { return t.s.Elements() }
func (t *hiSet) numGroups() int           { return t.s.NumGroups() }
func (t *hiSet) grow()                    { t.s.Grow() }
func (t *hiSet) bytes() int               { return 8 * t.s.NumGroups() }
func (t *hiSet) canonical(elems []int) bool {
	return t.s.Snapshot() == hihash.CanonicalSetSnapshot(t.s.Domain(), t.s.NumGroups(), elems)
}

type shardSet struct {
	s      *shard.Set
	domain int
}

func (t *shardSet) insert(w, key int) int    { t.s.Insert(w, key); return 0 }
func (t *shardSet) remove(w, key int)        { t.s.Remove(w, key) }
func (t *shardSet) contains(w, key int) bool { return t.s.Contains(w, key) }
func (t *shardSet) elements() []int          { return t.s.Elements() }
func (t *shardSet) canonical(elems []int) bool {
	return t.s.Snapshot() == shard.CanonicalSetSnapshot(workers, t.domain, t.s.NumShards(), elems)
}

// universals calls conc.Universal directly: one Algorithm 5 instance per
// shard, with keys routed as shard.Set routes them (shard.ShardOf, then
// ascending key order within a shard), so the conc layer is measured
// without the shard layer's routing and observer sites.
type universals struct {
	u     []*conc.Universal
	shard []int32 // shard[key-1]
	local []int32 // local[key-1] is key's 1-based element index in its shard
}

func newUniversals(domain, nShards int) *universals {
	t := &universals{shard: make([]int32, domain), local: make([]int32, domain)}
	n := make([]int32, nShards)
	for key := 1; key <= domain; key++ {
		sh := shard.ShardOf(key, nShards)
		n[sh]++
		t.shard[key-1], t.local[key-1] = int32(sh), n[sh]
	}
	for _, c := range n {
		t.u = append(t.u, conc.NewUniversal(conc.BigSetObj{Words: (int(c) + 63) / 64}, workers))
	}
	return t
}

func (t *universals) apply(w int, name string, key int) int {
	return t.u[t.shard[key-1]].Apply(w, core.Op{Name: name, Arg: int(t.local[key-1])})
}

func (t *universals) insert(w, key int) int    { return t.apply(w, spec.OpInsert, key) }
func (t *universals) remove(w, key int)        { t.apply(w, spec.OpRemove, key) }
func (t *universals) contains(w, key int) bool { return t.apply(w, spec.OpLookup, key) == 1 }

// refSet is the end-to-end run's reference: a set on the standard
// library's sync.Map, which is not history independent. It lives in the
// benchmark rather than the program, so no change to the program can move
// it.
type refSet struct{ m sync.Map }

var layerRef = layer{"syncmap", func(*workload) target { return &refSet{} }}

func (t *refSet) insert(_, key int) int { t.m.Store(key, struct{}{}); return 0 }
func (t *refSet) remove(_, key int)     { t.m.Delete(key) }
func (t *refSet) contains(_, key int) bool {
	_, ok := t.m.Load(key)
	return ok
}

type syncMap struct{ m *conc.SyncMapSet }

func (t syncMap) insert(_, key int) int { return t.m.Apply(0, core.Op{Name: spec.OpInsert, Arg: key}) }
func (t syncMap) remove(_, key int)     { t.m.Apply(0, core.Op{Name: spec.OpRemove, Arg: key}) }
func (t syncMap) contains(_, key int) bool {
	return t.m.Apply(0, core.Op{Name: spec.OpLookup, Arg: key}) == 1
}
