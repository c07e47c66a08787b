package hihash

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"hiconc/internal/conc"
	"hiconc/internal/core"
	"hiconc/internal/histats"
	"hiconc/internal/spec"
)

// SlotsPerGroup is the native group capacity B: four 16-bit slots packed
// into one uint64 CAS word. Each slot holds a 15-bit key plus a
// relocation mark bit, so a within-group relocation (the shift that keeps
// slots in priority order on insert and delete) is one atomic
// compare-and-swap, and a cross-group relocation is a short marked
// protocol over two words (see displace.go).
const SlotsPerGroup = 4

// MaxDomain is the largest key the native tables accept: 15 bits minus
// the top key value, which is reserved so the migration sentinel (the
// all-ones word) can never collide with a real packed group.
const MaxDomain = 0x7FFE

// tableState is one geometry of the native table: a group array, plus
// migration bookkeeping while the previous (half-sized) array drains.
// The current tableState is reached through Set.st; during an online
// resize prev points at the old state until every old group is gone.
type tableState struct {
	groups []atomic.Uint64
	// prev is the state being drained into this one, nil when migration
	// is complete (or never happened).
	prev atomic.Pointer[tableState]
}

func newTableState(nGroups int) *tableState {
	return &tableState{groups: make([]atomic.Uint64, nGroups)}
}

// Set is the native HICHT table: a lock-free, history-independent hash
// set over {1..domain} (domain <= MaxDomain). The group array is an
// array of uint64 CAS words of four slots each, holding keys in
// canonical priority order (ascending, low slots first, empty slots zero
// above them). Two disciplines are available:
//
//   - NewSet builds the bounded table (the PR-2 design): a key lives
//     only in its home group, every update is a single CAS on that
//     word, lookups are one atomic load, and the memory is canonical at
//     every instant — perfect HI. Inserts into a full home group return
//     RspFull.
//
//   - NewDisplaceSet builds the unbounded table: keys displace into
//     neighbouring groups in ordered Robin Hood priority (smaller keys
//     claim earlier groups of their probe run) via the marked
//     relocation protocol of displace.go, and the group array grows
//     online (resize.go) when probe runs lengthen, so Insert never
//     returns RspFull. The layout is the canonical displaced layout
//     (DisplacedGroups) whenever no update is pending — state-quiescent
//     HI, the class the HICHT paper proves; perfect HI is impossible
//     here because one insert can relocate keys across two group words
//     (Proposition 6).
//
// Unlike the universal-construction objects, a Set needs no per-process
// handles: any number of goroutines may call it directly.
type Set struct {
	domain    int
	displaced bool
	st        atomic.Pointer[tableState]
	// ghost counts the displacing protocol's open ghost windows
	// (displace.go). It is not part of the memory representation.
	ghost ghostWindows
}

var _ conc.Applier = (*Set)(nil)

// DefaultGroups returns a group count giving the table roughly twice the
// domain in slot capacity — ample headroom against per-group overflow for
// balanced key sets.
func DefaultGroups(domain int) int {
	g := (2*domain + SlotsPerGroup - 1) / SlotsPerGroup
	if g < 1 {
		g = 1
	}
	return g
}

// NewSet creates a bounded table over keys {1..domain} with nGroups
// groups of SlotsPerGroup slots each.
func NewSet(domain, nGroups int) *Set {
	if domain < 1 || domain > MaxDomain {
		panic(fmt.Sprintf("hihash: set domain %d out of range 1..%d", domain, MaxDomain))
	}
	if nGroups < 1 {
		panic(fmt.Sprintf("hihash: invalid group count %d", nGroups))
	}
	s := &Set{domain: domain}
	s.st.Store(newTableState(nGroups))
	return s
}

// NewDisplaceSet creates an unbounded displacing table over keys
// {1..domain} starting from nGroups groups; the group array doubles
// online under insert pressure, so the table sustains home-group load
// factors above 1 with no RspFull responses.
func NewDisplaceSet(domain, nGroups int) *Set {
	s := NewSet(domain, nGroups)
	s.displaced = true
	return s
}

// Name implements conc.Applier.
func (s *Set) Name() string {
	kind := "set"
	if s.displaced {
		kind = "openset"
	}
	return fmt.Sprintf("hihash-%s[g=%d]", kind, s.NumGroups())
}

// NumGroups returns the current group count.
func (s *Set) NumGroups() int { return len(s.st.Load().groups) }

// Capacity returns the current total slot capacity of the table.
func (s *Set) Capacity() int { return s.NumGroups() * SlotsPerGroup }

// Displacing reports whether the table uses the unbounded displacing
// discipline.
func (s *Set) Displacing() bool { return s.displaced }

// --- slot encoding -----------------------------------------------------
//
// A slot is 16 bits: the low 15 bits hold the key (0 = empty slot) and
// bit 15 is the relocation mark. The slot value flagSlot (mark bit with
// key 0) is the restore flag: a hole opened by a delete that the
// backward shift has not yet refilled. gone is the migration sentinel
// for a fully drained old group; reserving key MaxDomain+1 guarantees no
// packed group can equal it.

const (
	slotMark = 0x8000
	slotKey  = 0x7FFF
	flagSlot = uint64(slotMark)
	gone     = ^uint64(0)
)

// slotAt extracts slot i of word w.
func slotAt(w uint64, i int) uint64 { return w >> (16 * i) & 0xFFFF }

// unpack extracts the unmarked keys of a group word in slot (priority)
// order, skipping marked keys and flags.
func unpack(w uint64, keys *[SlotsPerGroup]int) int {
	n := 0
	for i := 0; i < SlotsPerGroup; i++ {
		s := slotAt(w, i)
		if s == 0 || s == flagSlot || s&slotMark != 0 {
			continue
		}
		keys[n] = int(s)
		n++
	}
	return n
}

// pack builds a group word from n keys already in priority order.
func pack(keys *[SlotsPerGroup]int, n int) uint64 {
	var w uint64
	for i := 0; i < n; i++ {
		w |= uint64(keys[i]) << (16 * i)
	}
	return w
}

func (s *Set) checkKey(key int) {
	if key < 1 || key > s.domain {
		panic(fmt.Sprintf("hihash: key %d out of range 1..%d", key, s.domain))
	}
}

// Insert adds key. It returns 0 on success (or if key was already
// present); the bounded table returns RspFull if key's home group is at
// capacity, the displacing table grows instead and never returns
// RspFull.
func (s *Set) Insert(key int) int {
	s.checkKey(key)
	if s.displaced {
		return s.displaceInsert(key)
	}
	st := s.st.Load()
	g := &st.groups[GroupOf(key, len(st.groups))]
	for {
		w := g.Load()
		var keys [SlotsPerGroup]int
		n := unpack(w, &keys)
		pos := n
		for i := 0; i < n; i++ {
			if keys[i] == key {
				return 0
			}
			if keys[i] > key {
				pos = i
				break
			}
		}
		if n == SlotsPerGroup {
			return RspFull
		}
		// Shift lower-priority keys up one slot and place key — the
		// within-group relocation, folded into one CAS.
		copy(keys[pos+1:n+1], keys[pos:n])
		keys[pos] = key
		if g.CompareAndSwap(w, pack(&keys, n+1)) {
			stepAt(SpBoundedUpdate)
			return 0
		}
		histats.Inc(histats.CtrHashCASFail)
	}
}

// Remove deletes key (tombstone-free: for the bounded table the same CAS
// that removes the key restores the canonical layout of its group; for
// the displacing table the backward shift of displace.go refills the
// hole). It always returns 0.
func (s *Set) Remove(key int) int {
	s.checkKey(key)
	if s.displaced {
		return s.displaceRemove(key)
	}
	st := s.st.Load()
	g := &st.groups[GroupOf(key, len(st.groups))]
	for {
		w := g.Load()
		var keys [SlotsPerGroup]int
		n := unpack(w, &keys)
		pos := -1
		for i := 0; i < n; i++ {
			if keys[i] == key {
				pos = i
				break
			}
		}
		if pos < 0 {
			return 0
		}
		copy(keys[pos:n-1], keys[pos+1:n])
		keys[n-1] = 0
		if g.CompareAndSwap(w, pack(&keys, n-1)) {
			stepAt(SpBoundedUpdate)
			return 0
		}
		histats.Inc(histats.CtrHashCASFail)
	}
}

// Contains reports membership of key: a single atomic load plus a
// branch-free word-parallel match (swar.go) for the bounded table, a
// validated probe-run scan with a bounded retry budget for the
// displacing table. (The bounded table never marks slots, so matching
// marked-or-not is exact for it.)
func (s *Set) Contains(key int) bool {
	s.checkKey(key)
	if s.displaced {
		return s.displaceContains(key)
	}
	st := s.st.Load()
	w := st.groups[GroupOf(key, len(st.groups))].Load()
	return swarKeyLanes(w, swarBroadcast(key)) != 0
}

// Apply implements conc.Applier (the pid is unused — the table needs no
// per-process state).
func (s *Set) Apply(_ int, op core.Op) int {
	switch op.Name {
	case spec.OpInsert:
		return s.Insert(op.Arg)
	case spec.OpRemove:
		return s.Remove(op.Arg)
	case spec.OpLookup:
		if s.Contains(op.Arg) {
			return 1
		}
		return 0
	case spec.OpGrow:
		s.Grow()
		return 0
	default:
		panic("hihash: set: unknown op " + op.Name)
	}
}

// Elements returns the sorted members. Per-group reads are atomic but the
// composite read is not; call it only at quiescence.
func (s *Set) Elements() []int {
	var out []int
	seen := map[int]bool{}
	st := s.st.Load()
	collect := func(t *tableState) {
		for g := range t.groups {
			w := t.groups[g].Load()
			if w == gone {
				continue
			}
			for i := 0; i < SlotsPerGroup; i++ {
				sl := slotAt(w, i)
				if k := int(sl & slotKey); k != 0 && !seen[k] {
					seen[k] = true
					out = append(out, k)
				}
			}
		}
	}
	collect(st)
	if p := st.prev.Load(); p != nil {
		collect(p)
	}
	sort.Ints(out)
	return out
}

// Snapshot renders the memory representation: every group's slots in
// order, with relocation marks ("*" suffix) and restore flags ("+")
// visible. At quiescence it is the canonical layout of the key set
// (DisplacedSnapshot for the displacing table, CanonicalSetSnapshot for
// the bounded one) with no marks or flags.
func (s *Set) Snapshot() string {
	st := s.st.Load()
	parts := make([]string, len(st.groups))
	for g := range st.groups {
		parts[g] = fmt.Sprintf("g%d=%s", g, renderWord(st.groups[g].Load()))
	}
	snap := strings.Join(parts, " | ")
	if p := st.prev.Load(); p != nil {
		old := make([]string, len(p.groups))
		for g := range p.groups {
			old[g] = fmt.Sprintf("o%d=%s", g, renderWord(p.groups[g].Load()))
		}
		snap = strings.Join(old, " | ") + " || " + snap
	}
	return snap
}

// renderWord renders one group word in the EncodeGroup style, annotating
// marked keys with "*" and restore flags with "+".
func renderWord(w uint64) string {
	if w == gone {
		return "gone"
	}
	var parts []string
	for i := 0; i < SlotsPerGroup; i++ {
		sl := slotAt(w, i)
		switch {
		case sl == 0:
		case sl == flagSlot:
			parts = append(parts, "+")
		case sl&slotMark != 0:
			parts = append(parts, fmt.Sprintf("%d*", sl&slotKey))
		default:
			parts = append(parts, fmt.Sprint(sl))
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// CanonicalSetSnapshot returns the canonical memory representation of the
// abstract state elems for a (domain, nGroups) table: each group holds
// its keys in priority order, with overflowing home groups spilled in
// displaced order (for states where no home group overflows — every
// state the bounded table can reach — this coincides with the bounded
// layout). Snapshot must equal it at quiescence.
func CanonicalSetSnapshot(domain, nGroups int, elems []int) string {
	return DisplacedSnapshot(domain, nGroups, elems)
}
