package hihash

// Online resize of the displacing table.
//
// grow publishes a fresh tableState with twice the groups whose prev
// pointer holds the old state, then drains every old group into the new
// array. Draining is cooperative and idempotent: each key is placed in
// the new table first (destination first, so the key is findable at
// every instant) and only then dropped from its old group; a fully
// drained group is stamped with the gone sentinel. Every update
// operation entering the table drives the whole drain to completion
// before operating (current), which pins two invariants at once: an
// update's key can never hide in the old array when the update decides,
// and the new array cannot overfill while the old one still holds keys
// (a second grow cannot start before the first finishes). Lookups scan
// the old array source-first instead: a hit returns at once, a miss
// helps finish the drain before it answers (containsSlow). When every
// old group is stamped gone, prev is detached and the resize is over.
//
// The operation that triggered the grow drains the whole old array
// before returning, so a completed resize cannot leave a half-migrated
// table behind at quiescence: the memory at every update-quiescent
// configuration is the canonical displaced layout of the new geometry.
//
// Capacity grows only (no shrink): the group count is a deterministic
// function of the insert pressure the table has seen, so the memory
// representation is a pure function of (key set, current capacity). The
// capacity itself reveals at most the high-watermark of the table's
// load — the standard residual leak of grow-only history-independent
// hash tables, stated in DESIGN.md.

import "math/bits"

// maxGroupsFactor caps growth at roughly four slots per domain key:
// beyond that no insert can fail for lack of room (keys are distinct and
// at most domain of them exist), so further doubling would only burn
// memory and drain sweeps.
const maxGroupsFactor = 4

// maxGroups is the growth ceiling for this table's domain.
func (s *Set) maxGroups() int {
	mg := (maxGroupsFactor*s.domain + SlotsPerGroup - 1) / SlotsPerGroup
	if mg < 1 {
		mg = 1
	}
	return mg
}

// Grow doubles the displacing table's group array (migrating all
// resident keys) and returns when the migration is complete. It is a
// no-op for the bounded table, whose geometry is fixed.
func (s *Set) Grow() {
	if !s.displaced {
		return
	}
	s.grow(s.st.Load())
}

// grow doubles the group array if st is still the current state,
// finishing any migration already in flight first. All callers observe
// a fully drained table on return.
func (s *Set) grow(st *tableState) {
	cur := s.st.Load()
	if p := cur.prev.Load(); p != nil {
		s.drainAll(p, cur)
	}
	if cur != st {
		// Someone already grew past the state we judged too small.
		return
	}
	if len(cur.groups) >= s.maxGroups() {
		// At the ceiling every key fits with room to spare; a walk that
		// still reported full was a transient of in-flight relocation
		// copies and resolves on retry. But no fresh array will ever
		// drain this one, so the rebuild a grow promises must happen in
		// place: repair whatever parked annotations remain. (A crashed
		// remove's restore flag in a group no surviving operation's probe
		// run crosses would otherwise outlive quiescence forever.)
		s.sweep(cur)
		return
	}
	next := newTableState(2 * len(cur.groups))
	next.prev.Store(cur)
	if s.st.CompareAndSwap(cur, next) {
		stepAt(SpGrowPublished)
		s.drainAll(cur, next)
	} else if p := s.st.Load().prev.Load(); p != nil {
		s.drainAll(p, s.st.Load())
	}
}

// sweep repairs every parked annotation of st in place: it completes
// marked relocations and runs the backward shift of every restore flag,
// group by group. It is the rebuild path of a grow at the capacity
// ceiling, where draining into a doubled array is no longer available.
func (s *Set) sweep(st *tableState) {
	for g := range st.groups {
		for {
			w := st.groups[g].Load()
			if w == gone {
				break
			}
			if m := wordAnyMarked(w); m != 0 {
				if s.relocateOut(st, m, g, nil) == wsRestart {
					return
				}
				continue
			}
			if wordFlags(w) > 0 {
				if s.restore(st, g, nil) == wsRestart {
					return
				}
				continue
			}
			break
		}
	}
}

// current returns the table state an update must operate in, driving
// any in-flight migration to completion first (see the package comment
// for why updates pay for the whole drain).
func (s *Set) current() *tableState {
	for {
		st := s.st.Load()
		p := st.prev.Load()
		if p == nil {
			return st
		}
		s.drainAll(p, st)
		if s.st.Load() == st {
			return st
		}
	}
}

// drainAll drains every old group into cur, then detaches prev —
// drainGroup returns only once its group is stamped gone, so after the
// sweep the old array is certainly empty.
func (s *Set) drainAll(p *tableState, cur *tableState) {
	for g := range p.groups {
		s.drainGroup(p, g, cur)
	}
	cur.prev.CompareAndSwap(p, nil)
}

// drainGroup moves every key of old group g into the current table and
// stamps the group gone. Restore flags are dropped (the old layout no
// longer needs repairing) and marked keys are moved like plain ones (the
// migration supersedes their old-array relocation; placement in the new
// table is idempotent, so racing helpers are harmless).
func (s *Set) drainGroup(p *tableState, g int, cur *tableState) {
	for {
		w := p.groups[g].Load()
		if w == gone {
			return
		}
		if wordFlags(w) > 0 {
			if p.groups[g].CompareAndSwap(w, wordReplace(w, flagSlot, 0)) {
				stepAt(SpDrainDropped)
			}
			continue
		}
		// First occupied slot, word-parallel (swar.go): the busy-lane
		// mask is zero exactly when the group is fully drained.
		var sl uint64
		if busy := swarBusyLanes(w); busy != 0 {
			sl = slotAt(w, bits.TrailingZeros64(busy)>>4)
		}
		if sl == 0 {
			if p.groups[g].CompareAndSwap(w, gone) {
				stepAt(SpGonePlaced)
			}
			continue
		}
		key := int(sl & slotKey)
		// Destination first: the key must live in the new table before
		// its old copy disappears.
		if rs, _ := s.placeKey(cur, key, -1, nil); rs != wsDone {
			// wsFull cannot normally happen (the new array is twice the
			// old), and wsRestart means cur itself was resized — reload
			// and retry via the caller's loop.
			if rs == wsRestart {
				cur = s.st.Load()
			}
			continue
		}
		stepAt(SpDrainCopied)
		if p.groups[g].CompareAndSwap(w, wordReplace(w, sl, 0)) {
			stepAt(SpDrainDropped)
		}
	}
}
