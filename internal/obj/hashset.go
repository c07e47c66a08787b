package obj

import (
	"hiconc/internal/hihash"
	"hiconc/internal/hirec"
	"hiconc/internal/histats"
	"hiconc/internal/spec"
)

// HashSet is the user-facing HICHT table: a lock-free, history-
// independent hash set over {1..domain} built on per-bucket CAS words
// (internal/hihash) instead of the universal construction. Unlike the
// Handle-based objects it needs no per-process handles — any number of
// goroutines may call it directly — and its throughput is not bounded
// by a per-object or per-shard serialization point.
//
// The table is unbounded: keys that overflow their home bucket group
// displace into neighbouring groups (ordered Robin Hood), and the group
// array grows online under insert pressure, so Insert always succeeds —
// there is no full response to handle. The memory representation is the
// canonical displaced layout of the key set whenever no update is in
// flight (state-quiescent HI).
type HashSet struct {
	s *hihash.Set
}

// NewHashSet creates a hash set over keys {1..domain}, initially sized
// at roughly twice the domain in slot capacity (it grows online if a
// skewed key set outruns that).
func NewHashSet(domain int) *HashSet {
	return &HashSet{s: hihash.NewDisplaceSet(domain, hihash.DefaultGroups(domain))}
}

// NewHashSetWithGroups creates a hash set with an explicit initial group
// count (capacity = 4 * nGroups slots before any growth). Small initial
// counts are fine: the table doubles online as keys arrive.
func NewHashSetWithGroups(domain, nGroups int) *HashSet {
	return &HashSet{s: hihash.NewDisplaceSet(domain, nGroups)}
}

// Insert adds v. It cannot fail: a full home group displaces, a full
// table grows. The API-layer observation sites — the histats operation
// counters and the hirec invoke/return events — live here rather than
// inside the table, so direct hihash users pay no per-operation sites
// at all. With no observer installed, an operation pays one slot load
// and a branch (histats.Observing) before it runs the table's.
func (h *HashSet) Insert(v int) {
	if !histats.Observing() {
		h.s.Insert(v)
		return
	}
	t := histats.Invoke(histats.Op{Ctr: histats.CtrHashInsert, Name: spec.OpInsert}, v)
	h.s.Insert(v)
	hirec.OpEnd(t, 0)
}

// Remove deletes v.
func (h *HashSet) Remove(v int) {
	if !histats.Observing() {
		h.s.Remove(v)
		return
	}
	t := histats.Invoke(histats.Op{Ctr: histats.CtrHashRemove, Name: spec.OpRemove}, v)
	h.s.Remove(v)
	hirec.OpEnd(t, 0)
}

// Contains reports whether v is in the set.
func (h *HashSet) Contains(v int) bool {
	if !histats.Observing() {
		return h.s.Contains(v)
	}
	t := histats.Invoke(histats.Op{Ctr: histats.CtrHashLookup, Name: spec.OpLookup}, v)
	in := h.s.Contains(v)
	if in {
		hirec.OpEnd(t, 1)
	} else {
		hirec.OpEnd(t, 0)
	}
	return in
}

// Grow doubles the table's group array now (it also grows by itself
// under insert pressure).
func (h *HashSet) Grow() { h.s.Grow() }

// NumGroups returns the current bucket-group count (it grows online).
func (h *HashSet) NumGroups() int { return h.s.NumGroups() }

// Elements returns the sorted members; composite reads are only atomic at
// quiescence.
func (h *HashSet) Elements() []int { return h.s.Elements() }

// Snapshot returns the memory representation (for HI inspection): the
// canonical displaced layout at quiescence.
func (h *HashSet) Snapshot() string { return h.s.Snapshot() }
