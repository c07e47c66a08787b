package hihash

// The cross-group relocation protocol of the displacing table.
//
// A key k homes at GroupOf(k, G) and may reside anywhere along its cyclic
// probe run. The canonical layout is the ordered Robin Hood one
// (DisplacedGroups): smaller keys claim earlier groups of their runs, so
// the layout is the one ascending-order insertion produces, independent
// of history. Because a cross-group relocation touches two CAS words it
// cannot be atomic; the protocol keeps every intermediate window safe
// with two in-word annotations:
//
//   - a mark bit on a slot (key k with slotMark set) says "k is being
//     relocated; it is still logically present here until its new copy
//     lands and this slot is released". Relocations are destination-
//     first: the new copy is placed before the marked copy is removed,
//     so a marked key is physically findable at every instant.
//
//   - a restore flag (flagSlot) fills a hole a delete or a relocation
//     release opened. The backward shift (restore) pulls the smallest
//     displaced key whose probe run crossed the hole back into it, then
//     cascades. A flagged group reads as full to probe scans, so a
//     lookup never concludes "absent" from a hole that is still being
//     shifted; an insert may claim the flagged slot directly, which
//     cancels that branch of the shift exactly when the canonical layout
//     says the hole belongs to the new key.
//
// Every operation helps complete the relocations it encounters
// (relocateOut), so a parked relocation cannot wedge the table.
//
// The only state kept outside the group words is the ghost-window
// count (ghostWindows): how many intervals are open in which some
// physical copy may sit where no probe scan from its home reaches it.
// A remove whose validated scan finds nothing sweeps the whole table
// for such a copy only while the count is non-zero.
// Lookups are validated double collects with a bounded retry budget: a
// scan that answers "absent" must read the same clean words twice, and
// after lookupRetryLimit failed validations the reader stops spinning
// and helps complete the interfering relocations itself (containsSlow),
// then answers from the stable view it produced. Slot matching inside
// every scan is word-parallel (swar.go): all four slots of a group word
// are classified in a handful of ALU ops. The helping and the flags
// make the layout self-repairing: whenever no update is pending the
// memory is exactly DisplacedGroups of the key set — state-quiescent
// history independence, machine-checked on the simulated twin (sim.go).
//
// Metrics discipline: the successful protocol CASes are counted by
// stepAt (steppoint.go); this file only adds cold-path sites — CAS
// losses, helping, lookup restarts — whose disabled nil-check executes
// exactly when the contention they count happened, plus one probe-length
// observation per displacing insert. Lookups that succeed first pass
// stay instrumentation-free, and every operation at quiescence is
// allocation-free (the collect records live in a fixed-size stack
// buffer; TestLookupAllocs and TestUpdateAllocs pin this).

import (
	"math/bits"
	"sync/atomic"

	"hiconc/internal/histats"
)

// cacheLine separates the ghost-window count from the fields every
// operation loads.
const cacheLine = 64

// ghostWindows counts the open ghost windows of a displacing Set: the
// intervals in which a physical copy of some key may sit beyond a clean
// group of its probe run, where no scan from its home reaches it. Two
// kinds exist, each opened just before the CAS that starts it, so a
// goroutine killed at the steppoint after that CAS leaves it open:
//
//   - a mark window, from just before a mark CAS until the CAS that
//     clears the mark — a release into a restore flag or the drain's
//     drop of the marked slot close it at once; a CAS that clears the
//     mark and leaves a key where it sits (evict-swap, an in-place
//     cancel) closes it only after placed has validated that copy and,
//     if the CAS left the group clean, fill has pulled back every key
//     that crossed it (placedUnmarked);
//   - a landing window, from just before a placement's landing CAS at
//     distance > 0 until placed has validated the landing.
//
// The invariant (DESIGN.md § The displacing table): while the count is
// zero, every physical copy is reachable by a probe scan from its home.
// So displaceRemove, whose validated scan read no copy, may skip the
// full-table ghost sweep when it reads zero between its two collects.
// The count reads zero at every crash-free quiescent point; after a
// crash inside a window it stays positive, and removes sweep as they
// always did. It is history, so it lives outside the group words —
// RawWords and RawDump never read it — on a cache line of its own.
type ghostWindows struct {
	_ [cacheLine]byte
	n atomic.Int64
	_ [cacheLine - 8]byte
}

func (gw *ghostWindows) open()  { gw.n.Add(1) }
func (gw *ghostWindows) close() { gw.n.Add(-1) }

// openLanding opens the landing window of a placement at distance
// dist; a home-group landing (dist 0) is always reachable and needs
// none.
func (gw *ghostWindows) openLanding(dist int) {
	if dist > 0 {
		gw.open()
	}
}

// closeLanding closes what openLanding opened.
func (gw *ghostWindows) closeLanding(dist int) {
	if dist > 0 {
		gw.close()
	}
}

// wstatus is the outcome of one protocol step.
type wstatus int

const (
	// wsDone: the step completed.
	wsDone wstatus = iota
	// wsFull: no slot is reachable — the table (at this geometry) is
	// full; the caller grows or reports RspFull.
	wsFull
	// wsRestart: the walk hit a drained (gone) group — the table has
	// been resized under us; the operation restarts against the current
	// state.
	wsRestart
	// wsLost: a helper completed the step first; re-examine the group.
	// From placeKey: the slot the walk moves left its group first
	// (walkSrc), and nothing was placed.
	wsLost
)

// slotLess orders slots canonically: keys ascending by key value
// (marked or not), restore flags after them.
func slotLess(a, b uint64) bool {
	if af, bf := a == flagSlot, b == flagSlot; af != bf {
		return !af
	}
	return a&slotKey < b&slotKey
}

// packWord rebuilds a canonical word from n slot values: key slots
// sorted ascending in the low slots, restore flags above them, empties
// on top. Allocation-free — these repacks sit on every CAS attempt of
// the displacing hot paths.
func packWord(slots *[SlotsPerGroup]uint64, n int) uint64 {
	for i := 1; i < n; i++ {
		for j := i; j > 0 && slotLess(slots[j], slots[j-1]); j-- {
			slots[j], slots[j-1] = slots[j-1], slots[j]
		}
	}
	var w uint64
	for i := 0; i < n; i++ {
		w |= slots[i] << (16 * i)
	}
	return w
}

// wordReplace returns w with the first slot equal to old replaced by new
// (new == 0 deletes the slot), canonically repacked. It returns w
// unchanged if old is absent.
func wordReplace(w, old, new uint64) uint64 {
	var slots [SlotsPerGroup]uint64
	n, replaced := 0, false
	for i := 0; i < SlotsPerGroup; i++ {
		sl := slotAt(w, i)
		if sl == 0 {
			continue
		}
		if !replaced && sl == old {
			replaced = true
			if new == 0 {
				continue
			}
			sl = new
		}
		slots[n] = sl
		n++
	}
	if !replaced {
		return w
	}
	return packWord(&slots, n)
}

// wordAdd returns w with slot new added (caller ensures a zero slot).
func wordAdd(w, new uint64) uint64 {
	var slots [SlotsPerGroup]uint64
	n := 0
	for i := 0; i < SlotsPerGroup; i++ {
		if sl := slotAt(w, i); sl != 0 {
			slots[n] = sl
			n++
		}
	}
	slots[n] = new
	return packWord(&slots, n+1)
}

// wordFind returns the slot index of key in w (marked or not), or -1.
// Probe loops that test many words against one key hoist the broadcast
// and call swarFind directly.
func wordFind(w uint64, key int) int {
	return swarFind(w, swarBroadcast(key))
}

// wordZeros counts the empty slots of w.
func wordZeros(w uint64) int {
	return bits.OnesCount64(swarEmptyLanes(w))
}

// wordFlags counts the restore flags of w.
func wordFlags(w uint64) int {
	return bits.OnesCount64(swarFlagLanes(w))
}

// wordMarks counts the marked keys of w.
func wordMarks(w uint64) int {
	return bits.OnesCount64(swarMarkLanes(w))
}

// wordMaxUnmarked returns the largest unmarked key of w, or 0.
func wordMaxUnmarked(w uint64) int {
	max := 0
	for i := 0; i < SlotsPerGroup; i++ {
		sl := slotAt(w, i)
		if sl != 0 && sl != flagSlot && sl&slotMark == 0 && int(sl) > max {
			max = int(sl)
		}
	}
	return max
}

// wordMaxKey returns the largest key of w, marked or not, or 0.
func wordMaxKey(w uint64) int {
	max := 0
	for i := 0; i < SlotsPerGroup; i++ {
		sl := slotAt(w, i)
		if sl != 0 && sl != flagSlot && int(sl&slotKey) > max {
			max = int(sl & slotKey)
		}
	}
	return max
}

// wordAnyMarked returns the lowest-slot marked key of w, or 0.
func wordAnyMarked(w uint64) int {
	m := swarMarkLanes(w)
	if m == 0 {
		return 0
	}
	return int(slotAt(w, bits.TrailingZeros64(m)>>4) & slotKey)
}

// wordClean reports whether w is a settled, non-full group: no marks, no
// flags, at least one empty slot. A probe scan may end at a clean group;
// anything else means the run (or an in-flight relocation) may extend
// further. Branch-free: a clean word has no lane-high (mark/flag) bits
// at all — which also rules out gone — and some all-zero lane.
func wordClean(w uint64) bool {
	return w&swarHigh == 0 && swarZeroLanes(w) != 0
}

// probeLimit is the walk length that triggers an online grow of the
// displacing table: once an insert has to probe this many groups the
// load is high enough that doubling the array is cheaper than longer
// runs.
const probeLimit = 4

// relocChain is the stack of relocations one goroutine is completing,
// innermost first: relocateOut and finishEvict push the key they move
// before walking its placement. Helping is recursive — a walk jammed by
// a foreign mark completes that relocation first — so without the
// chain a ring of full groups, each jammed by the mark the previous
// group's walk is helping, would recurse until the stack overflows. The
// links live in the callers' frames; nil is the empty chain.
type relocChain struct {
	key  int
	next *relocChain
}

// holds reports whether k's relocation is on the chain.
func (ch *relocChain) holds(k int) bool {
	for ; ch != nil; ch = ch.next {
		if ch.key == k {
			return true
		}
	}
	return false
}

// helpableMark returns the lowest-slot marked key of w that a walk
// placing c may help — any but c itself and the keys on chain — or 0.
func helpableMark(w uint64, c int, chain *relocChain) int {
	for m := swarMarkLanes(w); m != 0; m &= m - 1 {
		k := int(slotAt(w, bits.TrailingZeros64(m)>>4) & slotKey)
		if k != c && !chain.holds(k) {
			return k
		}
	}
	return 0
}

// walkSrc is the slot a placement walk moves: a relocation's marked
// source in the walk's own array, or an old-array slot a migration
// drain copies. The walk's landing is wanted only while that slot still
// sits in its group. A helper that read the source and was preempted
// may resume after another helper finished the move and the owner's
// Remove took the key; landing then would bring the removed key back.
// An Insert's walk has no source (nil).
type walkSrc struct {
	st *tableState
	g  int
	sl uint64
}

// left reports whether the walk's source slot is gone from its group:
// the move was completed or superseded without this walk. Checked just
// before every CAS that would place the walk's key, so a stale walk
// stands down instead of adding a copy.
func (src *walkSrc) left() bool {
	if src == nil {
		return false
	}
	w := src.st.groups[src.g].Load()
	y := w ^ src.sl*swarLanes
	return w == gone || swarZeroLanes(y&swarLow)&^y == 0
}

// placeKey walks key c's probe run in st and ensures c is present,
// evicting larger residents in ordered Robin Hood priority as needed.
// src is the slot the walk moves (nil for an Insert). When src is a
// relocation's source in st, c's marked copy there is treated as
// invisible and never re-placed, and the marks of chain — the
// relocations this goroutine is already completing — are never helped.
// It returns the walk distance of the decisive group; wsLost means src
// left its group first and the walk placed nothing.
func (s *Set) placeKey(st *tableState, c int, src *walkSrc, chain *relocChain) (wstatus, int) {
	exclude := -1
	if src != nil && src.st == st {
		exclude = src.g
	}
	G := len(st.groups)
	g := GroupOf(c, G)
	for dist := 0; dist < G; {
		w := st.groups[g].Load()
		if w == gone {
			return wsRestart, dist
		}
		// At the excluded group (the stale source of the relocation
		// being completed) c's own marked copy is invisible for every
		// priority decision — but it still occupies its slot, and it
		// must never be "helped" from here: helping it is this very
		// call, and recursing into it would never terminate.
		view := w
		if g == exclude {
			view = wordReplace(w, uint64(c)|slotMark, 0)
		}
		if i := wordFind(view, c); i >= 0 {
			// An unmarked copy (or, away from the excluded group, any
			// copy) of c: it is placed, or its relocation is someone
			// we may help.
			if slotAt(view, i)&slotMark == 0 {
				return wsDone, dist
			}
			if exclude >= 0 && dist > probeDist(c, exclude, G) {
				// This walk is already completing a relocation of c out
				// of exclude, yet c has a second marked copy here,
				// further along c's run: a second relocation of c, whose
				// source may be this walk's own landed copy or a slot a
				// later insert refilled after its owner stalled. Helping
				// it would recurse into helping ourselves forever; cancel
				// it in place instead — the twin becomes c's landed copy
				// and the caller releases the copy at exclude. Only the
				// walk whose source is nearer c's home cancels: if both
				// walks cancelled each other's mark, neither source
				// would be released and c would keep two copies. A twin
				// nearer than exclude is helped below, and its walk
				// cancels this one's mark.
				nw := wordReplace(w, uint64(c)|slotMark, uint64(c))
				if src.left() {
					return wsLost, dist
				}
				if st.groups[g].CompareAndSwap(w, nw) {
					stepAt(SpEvictSwap)
					return s.placedUnmarked(st, c, g, chain), dist
				}
				histats.Inc(histats.CtrHashCASFail)
				continue
			}
			// c is itself mid-relocation here: help it land, then
			// re-examine.
			histats.Inc(histats.CtrHelpRelocate)
			if rs := s.relocateOut(st, c, g, chain); rs != wsDone {
				return rs, dist
			}
			continue
		}
		if g == exclude {
			if view == w {
				// c's mark is gone from its source (src left, read in
				// the very word a landing here would CAS).
				return wsLost, dist
			}
			// Back at c's own marked source, c stays — the relocation is
			// cancelled in place, which is the placement — when the
			// group has room for c (a second, unmarked c beside the mark
			// would leave a group restore cannot pull from: it would
			// pick the unmarked copy, meet the marked one first and
			// retry forever), or when the group is full and c outranks
			// an unmarked resident (the relocation is obsolete: a larger
			// key claimed a freed slot while the mark was parked).
			room := wordZeros(w) > 0 || wordFlags(w) > 0
			if m := wordMaxUnmarked(view); room || m != 0 && c < m {
				if st.groups[g].CompareAndSwap(w, wordReplace(w, uint64(c)|slotMark, uint64(c))) {
					stepAt(SpEvictSwap)
					return s.placedUnmarked(st, c, g, chain), dist
				}
				histats.Inc(histats.CtrHashCASFail)
				continue
			}
		}
		if wordZeros(w) > 0 {
			// The source check goes last before the CAS: a walk
			// preempted after it can still land a stale copy if the
			// word it read recurs meanwhile, so the gap is kept to one
			// load.
			nw := wordAdd(w, uint64(c))
			s.ghost.openLanding(dist)
			if src.left() {
				s.ghost.closeLanding(dist)
				return wsLost, dist
			}
			if st.groups[g].CompareAndSwap(w, nw) {
				stepAt(SpDestWritten)
				return s.placedLanding(st, c, dist, chain), dist
			}
			s.ghost.closeLanding(dist)
			histats.Inc(histats.CtrHashCASFail)
			continue
		}
		if wordFlags(w) > 0 {
			// A flagged hole is free for placement; claiming it cancels
			// that branch of the backward shift (the canonical layout
			// gives the hole to c).
			nw := wordReplace(w, flagSlot, uint64(c))
			s.ghost.openLanding(dist)
			if src.left() {
				s.ghost.closeLanding(dist)
				return wsLost, dist
			}
			if st.groups[g].CompareAndSwap(w, nw) {
				stepAt(SpDestWritten)
				return s.placedLanding(st, c, dist, chain), dist
			}
			s.ghost.closeLanding(dist)
			histats.Inc(histats.CtrHashCASFail)
			continue
		}
		if m := wordMaxUnmarked(w); g != exclude && m != 0 && c < m && wordMarks(w) == 0 {
			// Ordered Robin Hood eviction: mark the largest resident,
			// place it further along its run, then swap the stale mark
			// for c in one CAS on this word.
			if src.left() {
				return wsLost, dist
			}
			s.ghost.open()
			if !st.groups[g].CompareAndSwap(w, wordReplace(w, uint64(m), uint64(m)|slotMark)) {
				s.ghost.close()
				histats.Inc(histats.CtrHashCASFail)
				continue
			}
			stepAt(SpMarkSet)
			rs := s.finishEvict(st, c, m, g, src, chain)
			if rs == wsDone {
				return s.placedUnmarked(st, c, g, chain), dist
			}
			if rs == wsLost {
				continue
			}
			return rs, dist
		}
		if c < wordMaxKey(view) {
			// The group is jammed by an in-flight relocation that c has
			// priority over: help it resolve before deciding — but
			// never c's own mark (invisible in view at the excluded
			// group), nor a mark on chain: that relocation is waiting,
			// further up this goroutine's stack, for this very walk, so
			// helping it would recurse round a ring of jammed groups
			// forever. A group jammed only by chain marks is passed
			// like a settled full one.
			if mk := helpableMark(view, c, chain); mk != 0 {
				histats.Inc(histats.CtrHelpRelocate)
				if rs := s.relocateOut(st, mk, g, chain); rs != wsDone {
					return rs, dist
				}
				continue
			}
			if g != exclude && wordMarks(view) == 0 {
				continue
			}
		}
		g = (g + 1) % G
		dist++
	}
	return wsFull, G
}

// finishEvict completes an eviction begun by placeKey: m is marked at
// group g and must land beyond, after which the stale mark is swapped
// for c in a single CAS. Like relocateOut, it reads g before placing m
// and swaps against exactly that word: a mark that a helper released
// and another relocation re-set while m's walk ran then fails the CAS
// (unless the whole word recurred), instead of being taken for this
// eviction's — swapping it would drop m before the new relocation
// landed. On wsDone the swap's ghost window is still open: the caller
// validates c's landing and closes it (placedUnmarked). wsLost means a
// helper released the mark first and c still needs a slot — or that
// c's own walk went stale (src left) while m moved, in which case m's
// relocation is completed instead and the caller's walk stands down.
func (s *Set) finishEvict(st *tableState, c, m, g int, src *walkSrc, chain *relocChain) wstatus {
	link := relocChain{m, chain}
	msrc := walkSrc{st, g, uint64(m) | slotMark}
	for {
		w := st.groups[g].Load()
		if w == gone {
			return wsRestart
		}
		if i := wordFind(w, m); i < 0 || slotAt(w, i)&slotMark == 0 {
			return wsLost
		}
		rs, dist := s.placeKey(st, m, &msrc, &link)
		switch rs {
		case wsDone:
		case wsFull:
			// Nowhere for m to land: cancel the eviction so the mark
			// cannot dangle, then report full.
			s.unmark(st, m, g, &link)
			return wsFull
		default:
			return rs
		}
		if !landedAt(st, m, dist) {
			continue
		}
		nw := wordReplace(w, uint64(m)|slotMark, uint64(c))
		if src.left() {
			// m has landed; release its mark like any relocation.
			if rs := s.relocateOut(st, m, g, chain); rs != wsDone {
				return rs
			}
			return wsLost
		}
		if st.groups[g].CompareAndSwap(w, nw) {
			stepAt(SpEvictSwap)
			return wsDone
		}
		histats.Inc(histats.CtrHashCASFail)
	}
}

// placed is the post-placement validation: a key placed at displacement
// distance > 0 must stay reachable by a standard probe scan. A racing
// delete may have emptied (or be restoring) an earlier group of the run
// after the walk passed it, stranding the key beyond a free slot where
// scans would miss it. The repair loop re-scans the run: a settled free
// group before the key means the key itself must be pulled back (its
// relocation walk lands in that hole); a restore flag before it means a
// backward shift is deciding concurrently — help it to completion so its
// candidate scan cannot have missed the fresh placement. The loop ends
// only on a pass that finds the key with no holes or flags before it.
// The flagged groups of one pass are recorded in a fixed stack buffer
// (a run with more than scanCap of them helps the first scanCap and
// re-validates), so the repair loop allocates nothing.
func (s *Set) placed(st *tableState, c, dist int, chain *relocChain) wstatus {
	if dist == 0 {
		// A key in its home group is always reachable.
		return wsDone
	}
	G := len(st.groups)
	var flagged [scanCap]int32
	for {
		g := GroupOf(c, G)
		foundAt, cleanAt, nf := -1, -1, 0
		for d := 0; d < G; d++ {
			w := st.groups[g].Load()
			if w == gone {
				return wsRestart
			}
			if wordFind(w, c) >= 0 {
				foundAt = g
				break
			}
			if wordFlags(w) > 0 && nf < scanCap {
				flagged[nf] = int32(g)
				nf++
			}
			if wordClean(w) {
				cleanAt = g
				break
			}
			g = (g + 1) % G
		}
		switch {
		case foundAt >= 0 && nf == 0:
			return wsDone
		case foundAt >= 0:
			// A backward shift is pending before c: drive it so it sees
			// c (or clears), then re-validate.
			for _, f := range flagged[:nf] {
				if rs := s.restore(st, int(f), chain); rs != wsDone {
					return rs
				}
			}
		case cleanAt >= 0:
			// c stranded beyond a settled free group: pull it back
			// ourselves via a marked relocation.
			histats.Inc(histats.CtrGhostSweep)
			at := s.findKey(st, c)
			if at < 0 {
				// A racing remove took c; nothing left to repair.
				return wsDone
			}
			w := st.groups[at].Load()
			if w == gone {
				return wsRestart
			}
			if i := wordFind(w, c); i < 0 || slotAt(w, i)&slotMark != 0 {
				continue
			}
			s.ghost.open()
			if !st.groups[at].CompareAndSwap(w, wordReplace(w, uint64(c), uint64(c)|slotMark)) {
				s.ghost.close()
				histats.Inc(histats.CtrHashCASFail)
				continue
			}
			stepAt(SpMarkSet)
			if rs := s.relocateOut(st, c, at, chain); rs != wsDone {
				return rs
			}
		}
	}
}

// placedLanding validates a placement that landed c at distance dist
// and then closes its landing window.
func (s *Set) placedLanding(st *tableState, c, dist int, chain *relocChain) wstatus {
	rs := s.placed(st, c, dist, chain)
	s.ghost.closeLanding(dist)
	return rs
}

// placedUnmarked repairs what a CAS that cleared a mark in group g
// without releasing it left behind — an evict-swap that landed c in the
// evicted key's slot, or an in-place cancel that un-marked c itself —
// and then closes that mark's ghost window. While a key is marked,
// restore skips it as a candidate and its group cannot read clean, so
// two repairs are due before the window may close: c may sit beyond a
// hole a restore cleared while it was marked (placed pulls it back),
// and g may have gained a free slot while the mark was parked, so that
// the CAS left it clean with a key beyond it that crossed it meanwhile
// (fill pulls that key back).
func (s *Set) placedUnmarked(st *tableState, c, g int, chain *relocChain) wstatus {
	rs := s.placed(st, c, probeDist(c, g, len(st.groups)), chain)
	if rs == wsDone {
		rs = s.fill(st, g, chain)
	}
	s.ghost.close()
	return rs
}

// fill is restore for a group that a cleared mark left clean instead of
// flagged: while g reads clean, pull back the smallest key beyond it
// whose probe run crossed it. Once g is full again, or flagged or
// marked, the flag's restore or the mark's clearing takes over.
func (s *Set) fill(st *tableState, g int, chain *relocChain) wstatus {
	for {
		w := st.groups[g].Load()
		if w == gone {
			return wsRestart
		}
		if !wordClean(w) {
			return wsDone
		}
		best, bestAt := crossing(st, g)
		if best == 0 {
			return wsDone
		}
		if rs := s.pullBack(st, best, bestAt, chain); rs != wsDone && rs != wsLost {
			return rs
		}
	}
}

// probeDist returns the distance of group g along key c's probe run.
func probeDist(c, g, G int) int {
	return (g - GroupOf(c, G) + G) % G
}

// findKey scans every group for c, returning its group or -1: the
// O(table) ghost sweep, which both call sites count in
// histats.CtrGhostSweep. The broadcast is hoisted: the whole sweep is
// one load, one XOR-mask and one zero-lane test per group. (gone cannot
// false-match: its lanes carry the reserved key 0x7FFF, which no probe
// key equals.)
func (s *Set) findKey(st *tableState, c int) int {
	bcast := swarBroadcast(c)
	for g := range st.groups {
		if swarKeyLanes(st.groups[g].Load(), bcast) != 0 {
			return g
		}
	}
	return -1
}

// landedAt reports whether m still sits unmarked where a walk that
// moved it reported it: at distance dist along m's run. The walk's
// caller (relocateOut, finishEvict) checks this just before it CASes
// the source word it read before the walk, because m's copy can move
// on meanwhile: pulled back into the source group by a restore and
// re-marked there by the next relocation, the source word can recur
// exactly, and the stale CAS would then destroy m's only copy. The
// check reads the copy's group now, so a copy that moved (or was
// marked again) sends the caller back to re-read its source.
func landedAt(st *tableState, m, dist int) bool {
	G := len(st.groups)
	w := st.groups[(GroupOf(m, G)+dist)%G].Load()
	// An unmarked lane holding m: the group may hold m's marked copy
	// too (the relocation source itself), which must not hide it.
	return swarKeyLanes(w, swarBroadcast(m))&^w != 0
}

// unmark restores a marked key in place (used to cancel an eviction that
// found no destination), then validates the un-marked copy and closes
// the mark's ghost window (placedUnmarked).
func (s *Set) unmark(st *tableState, m, g int, chain *relocChain) {
	for {
		w := st.groups[g].Load()
		if w == gone {
			return
		}
		i := wordFind(w, m)
		if i < 0 || slotAt(w, i)&slotMark == 0 {
			return
		}
		// Cancellation restores the exact pre-mark word, so a crash here
		// is indistinguishable from one before SpMarkSet fired — no new
		// window for the E23 matrix to cover.
		//hilint:allow steppoint (cancel CAS restores the pre-SpMarkSet word; no new crash window)
		if st.groups[g].CompareAndSwap(w, wordReplace(w, uint64(m)|slotMark, uint64(m))) {
			s.placedUnmarked(st, m, g, chain)
			return
		}
	}
}

// relocateOut completes the relocation of marked key m at group j on
// behalf of any helper: place m's new copy (destination first), then
// release the stale slot into a restore flag and run the backward shift
// it may enable. It is idempotent — whoever's release CAS wins, the
// others observe the mark gone and stand down.
func (s *Set) relocateOut(st *tableState, m, j int, chain *relocChain) wstatus {
	link := relocChain{m, chain}
	src := walkSrc{st, j, uint64(m) | slotMark}
	for {
		w := st.groups[j].Load()
		if w == gone {
			return wsRestart
		}
		i := wordFind(w, m)
		if i < 0 || slotAt(w, i)&slotMark == 0 {
			return wsDone
		}
		rs, dist := s.placeKey(st, m, &src, &link)
		if rs == wsLost || rs == wsDone && !landedAt(st, m, dist) {
			continue
		}
		if rs != wsDone {
			if rs == wsFull {
				// No destination (table momentarily full): cancel by
				// restoring the mark. Like unmark, this rewinds to the
				// exact pre-SpMarkSet word, so crashing here opens no
				// window the matrix does not already sweep.
				//hilint:allow steppoint (cancel CAS restores the pre-SpMarkSet word; no new crash window)
				if st.groups[j].CompareAndSwap(w, wordReplace(w, uint64(m)|slotMark, uint64(m))) {
					return s.placedUnmarked(st, m, j, &link)
				}
				continue
			}
			return rs
		}
		if st.groups[j].CompareAndSwap(w, wordReplace(w, uint64(m)|slotMark, flagSlot)) {
			s.ghost.close()
			stepAt(SpSourceCleared)
			histats.Observe(histats.HistRelocDist, uint64(dist))
			return s.restore(st, j, chain)
		}
		histats.Inc(histats.CtrHashCASFail)
	}
}

// restore runs the backward shift for a restore flag at group g: find
// the smallest key beyond g whose probe run crossed g, pull it back into
// the hole, and cascade. If no key crossed the hole the flag is simply
// cleared — the layout was already canonical.
func (s *Set) restore(st *tableState, g int, chain *relocChain) wstatus {
	for {
		w := st.groups[g].Load()
		if w == gone {
			return wsRestart
		}
		if wordFlags(w) == 0 {
			return wsDone
		}
		best, bestAt := crossing(st, g)
		if best == 0 {
			if st.groups[g].CompareAndSwap(w, wordReplace(w, flagSlot, 0)) {
				stepAt(SpFlagCleared)
				return wsDone
			}
			histats.Inc(histats.CtrHashCASFail)
			continue
		}
		if rs := s.pullBack(st, best, bestAt, chain); rs != wsDone && rs != wsLost {
			return rs
		}
	}
}

// crossing is the candidate scan of restore and fill: the smallest
// unmarked key beyond group g, up to the next clean group, whose probe
// run crossed g, and the group holding it — or best 0.
func crossing(st *tableState, g int) (best, bestAt int) {
	G := len(st.groups)
	bestAt = -1
	j := (g + 1) % G
	for dist := 1; dist < G; dist++ {
		wj := st.groups[j].Load()
		if wj == gone {
			// The table is being drained under us; migration
			// supersedes restoration.
			break
		}
		for i := 0; i < SlotsPerGroup; i++ {
			sl := slotAt(wj, i)
			if sl == 0 || sl == flagSlot || sl&slotMark != 0 {
				continue
			}
			c := int(sl)
			if probeCrosses(c, j, g, G) && (best == 0 || c < best) {
				best, bestAt = c, j
			}
		}
		if wordClean(wj) {
			break
		}
		j = (j + 1) % G
	}
	return best, bestAt
}

// pullBack marks best, a candidate crossing found at group at, and
// completes its relocation: the placement walk starts at best's home,
// so it lands in the hole best crossed (or an even earlier one), and
// the release cascades. wsLost means best moved or was marked since
// the scan; the caller re-scans.
func (s *Set) pullBack(st *tableState, best, at int, chain *relocChain) wstatus {
	w := st.groups[at].Load()
	if w == gone {
		return wsLost
	}
	if i := wordFind(w, best); i < 0 || slotAt(w, i)&slotMark != 0 {
		return wsLost
	}
	s.ghost.open()
	if !st.groups[at].CompareAndSwap(w, wordReplace(w, uint64(best), uint64(best)|slotMark)) {
		s.ghost.close()
		histats.Inc(histats.CtrHashCASFail)
		return wsLost
	}
	stepAt(SpMarkSet)
	return s.relocateOut(st, best, at, chain)
}

// scanCap is the record capacity of the fast-path probe scan: probe
// runs stay far shorter than this in practice (an insert that walks
// probeLimit groups already grows the table), so the common case
// records into fixed stack buffers and neither the lookup fast path
// nor a remove allocates. A pathological run longer than scanCap sets
// long instead — the lookup then cannot validate and falls through to
// the slow path, and a remove rescans with scanRun; both slice-based
// collects have no length cap.
const scanCap = 32

// probeScan is one fixed-buffer pass of a probe-run scan for key on the
// lookup fast path and the remove path: it reads along key's run until
// a clean group (or a full cycle), recording every word read for
// validation. found reports the key seen (marked counts — a marked key
// is logically present); unless long is set, the last record is then
// the group holding it.
// The buffers are plain arrays indexed by n — never self-referential
// slices, which would defeat escape analysis and put the record on the
// heap (TestLookupAllocs pins this at zero).
type probeScan struct {
	n       int
	found   bool
	sawGone bool
	long    bool
	groups  [scanCap]int32
	words   [scanCap]uint64
}

// fastScan scans key's probe run in st into r (caller-provided so the
// record lives on the caller's stack). bcast must be
// swarBroadcast(key) — hoisted so the whole run shares one broadcast.
// treatGoneFull makes drained groups read as full (used on the old
// table during migration, where the run logically continues past
// drained groups); drained groups are not recorded, since gone is
// final and re-validates trivially.
func fastScan(st *tableState, key int, bcast uint64, treatGoneFull bool, r *probeScan) {
	r.n = 0
	r.found = false
	r.sawGone = false
	r.long = false
	G := len(st.groups)
	g := GroupOf(key, G)
	for dist := 0; dist < G; dist++ {
		w := st.groups[g].Load()
		if w == gone {
			r.sawGone = true
			if !treatGoneFull {
				return
			}
			g = (g + 1) % G
			continue
		}
		if r.n < scanCap {
			r.groups[r.n] = int32(g)
			r.words[r.n] = w
			r.n++
		} else {
			r.long = true
		}
		if swarKeyLanes(w, bcast) != 0 {
			r.found = true
			return
		}
		if wordClean(w) {
			return
		}
		g = (g + 1) % G
	}
}

// fastMatches re-reads the words of a fast scan and reports whether the
// memory is unchanged — the validation pass of the double collect. A
// scan that outgrew its record buffer cannot be validated.
func fastMatches(st *tableState, r *probeScan) bool {
	if r.long {
		return false
	}
	for i := 0; i < r.n; i++ {
		if st.groups[r.groups[i]].Load() != r.words[i] {
			return false
		}
	}
	return true
}

// runScan is one slice-collecting pass of a probe-run scan for key,
// used by the slow lookup path and by removes whose run outgrew a
// probeScan (where a cold allocation is fine and runs must have no
// length cap). found reports the key seen
// (marked counts — a marked key is logically present);
// foundAt/foundMarked locate it.
type runScan struct {
	groups      []int
	words       []uint64
	found       bool
	foundAt     int
	foundMarked bool
	sawGone     bool
}

// scanRun scans key's probe run in st. treatGoneFull makes drained
// groups read as full (used on the old table during migration, where the
// run logically continues past drained groups).
func scanRun(st *tableState, key int, treatGoneFull bool) runScan {
	var r runScan
	bcast := swarBroadcast(key)
	G := len(st.groups)
	g := GroupOf(key, G)
	for dist := 0; dist < G; dist++ {
		w := st.groups[g].Load()
		r.groups = append(r.groups, g)
		r.words = append(r.words, w)
		if w == gone {
			r.sawGone = true
			if !treatGoneFull {
				return r
			}
			g = (g + 1) % G
			continue
		}
		if i := swarFind(w, bcast); i >= 0 {
			r.found = true
			r.foundAt = g
			r.foundMarked = slotAt(w, i)&slotMark != 0
			return r
		}
		if wordClean(w) {
			return r
		}
		g = (g + 1) % G
	}
	return r
}

// rescanMatches re-reads the words of a scan and reports whether the
// memory is unchanged — the validation pass of the double collect.
func rescanMatches(st *tableState, r runScan) bool {
	for i, g := range r.groups {
		if st.groups[g].Load() != r.words[i] {
			return false
		}
	}
	return true
}

// displaceInsert is Insert for the displacing table: place the key,
// growing the group array when the walk reports the table full or the
// probe run has grown past probeLimit. It never returns RspFull.
func (s *Set) displaceInsert(key int) int {
	for {
		st := s.current()
		rs, dist := s.placeKey(st, key, nil, nil)
		switch rs {
		case wsDone:
			histats.Observe(histats.HistProbeLen, uint64(dist))
			if dist >= probeLimit {
				s.grow(st) // capped at maxGroups; a no-op at the ceiling
			}
			return 0
		case wsFull:
			s.grow(st)
		case wsRestart:
		}
	}
}

// displaceRemove is Remove for the displacing table: resolve any
// in-flight relocation of the key, release its slot into a restore flag
// and run the backward shift. The operation returns only after a
// validated double collect confirms absence on a stable table state —
// removing one copy is not enough, because a migration drain (or a
// relocation) racing the removal can have copied the key elsewhere; the
// loop chases every copy until a clean pass finds none. The collect
// records into a stack probeScan (the slice-based scanRun only serves a
// run longer than scanCap), so a remove at quiescence allocates nothing.
func (s *Set) displaceRemove(key int) int {
	bcast := swarBroadcast(key)
	var r probeScan
	for {
		st := s.current()
		fastScan(st, key, bcast, false, &r)
		if r.sawGone {
			continue
		}
		var long runScan
		found, at, marked := r.found, -1, false
		if r.long {
			long = scanRun(st, key, false)
			if long.sawGone {
				continue
			}
			found, at, marked = long.found, long.foundAt, long.foundMarked
		} else if found {
			w := r.words[r.n-1]
			at = int(r.groups[r.n-1])
			marked = slotAt(w, swarFind(w, bcast))&slotMark != 0
		}
		if !found {
			// The count is read between the two collects: if it is zero
			// there, every physical copy was reachable from the key's
			// home at that instant, so a validated scan that read none
			// proves there was none (ghostWindows).
			if s.ghost.n.Load() != 0 {
				histats.Inc(histats.CtrGhostSweep)
				if g := s.findKey(st, key); g >= 0 {
					// A physical copy beyond the validated probe run: the
					// ghost of a relocation whose owner died after the
					// destination copy was separately removed. Scans can
					// never reach it, but a drain would faithfully migrate
					// (resurrect) it — chase it like a found copy.
					w := st.groups[g].Load()
					i := wordFind(w, key)
					if i < 0 {
						continue
					}
					found, at = true, g
					marked = slotAt(w, i)&slotMark != 0
				}
			}
			if !found {
				// Migration in flight would let the key hide in the old
				// table; current drains it first, so once prev is gone a
				// validated clean scan over a ghost-free table confirms
				// absence.
				valid := fastMatches(st, &r) || r.long && rescanMatches(st, long)
				if valid && st.prev.Load() == nil && s.st.Load() == st {
					return 0
				}
				continue
			}
		}
		if marked {
			// Resolve the in-flight relocation first: removing a copy
			// while a marked twin survives could resurrect the key.
			histats.Inc(histats.CtrHelpRelocate)
			s.relocateOut(st, key, at, nil)
			continue
		}
		w := st.groups[at].Load()
		if w == gone {
			continue
		}
		if i := wordFind(w, key); i < 0 || slotAt(w, i)&slotMark != 0 {
			continue
		}
		if st.groups[at].CompareAndSwap(w, wordReplace(w, uint64(key), flagSlot)) {
			stepAt(SpFlagPlaced)
			s.restore(st, at, nil)
		} else {
			histats.Inc(histats.CtrHashCASFail)
		}
	}
}

// lookupRetryLimit is K, the fast-path retry budget of a displacing
// lookup: a validated double collect that fails this many validations
// is being actively interfered with, and the reader switches from
// spinning to helping (containsSlow). It is a var, not a const, only so
// the whitebox tests can reach the slow path without manufacturing K
// real interferences.
var lookupRetryLimit = 4

// LookupRetryLimit reports K, the fast-path retry budget of a
// displacing lookup. The E26 gate checks the observed retry histogram
// never exceeds it.
func LookupRetryLimit() int { return lookupRetryLimit }

// displaceContains is Contains for the displacing table: a read-only
// validated double collect over the probe run — and, during a resize,
// over the old table first, since keys migrate old-to-new destination
// first and a source-first scan cannot miss a migrating key. A positive
// answer needs no validation (a marked key is logically present, and
// keys move destination first, so anything seen is or was just now a
// member); "absent" must read the same clean words twice on a stable,
// fully migrated state. A miss during a resize, or after
// lookupRetryLimit failed validations, ends the retry loop, and the
// lookup helps the interference to completion instead.
func (s *Set) displaceContains(key int) bool {
	bcast := swarBroadcast(key)
	var r probeScan
	for try := 0; try < lookupRetryLimit; try++ {
		st := s.st.Load()
		p := st.prev.Load()
		if p != nil {
			fastScan(p, key, bcast, true, &r)
			if r.found {
				if try > 0 {
					histats.Observe(histats.HistLookupRetry, uint64(try))
				}
				return true
			}
		}
		fastScan(st, key, bcast, false, &r)
		if r.found {
			if try > 0 {
				histats.Observe(histats.HistLookupRetry, uint64(try))
			}
			return true
		}
		if p != nil {
			// A miss cannot be certified mid-resize: the drain empties an
			// old group one key at a time, so a partly drained group
			// reads clean and ends the old-array scan short of keys
			// displaced past it that are not copied yet. Finish the
			// drain and answer from the new array.
			if try > 0 {
				histats.Observe(histats.HistLookupRetry, uint64(try))
			}
			return s.containsSlow(key)
		}
		if !r.sawGone && fastMatches(st, &r) &&
			s.st.Load() == st && st.prev.Load() == nil {
			if try > 0 {
				histats.Observe(histats.HistLookupRetry, uint64(try))
			}
			return false
		}
		histats.Inc(histats.CtrLookupRetry)
	}
	histats.Observe(histats.HistLookupRetry, uint64(lookupRetryLimit))
	return s.containsSlow(key)
}

// containsSlow is the helping fallback of the read path: the fast path
// burned its retry budget against live interference, or missed while a
// resize was draining, so instead of spinning the reader completes the
// interference itself. It drives any in-flight migration to completion
// (current), then repeatedly scans the key's run, helping every
// relocation mark and restore flag it recorded — the same
// relocateOut/restore machinery the update paths use — until a pass
// either finds the key or validates clean on a stable state. Every
// non-terminal pass retires protocol work some update already started,
// so the loop inherits the update paths' lock-free progress argument
// instead of spinning on validation.
//
// Helping writes to the table, but only the transitions pending updates
// already own: validation interference or a drain some Insert started.
// At quiescence the first validation succeeds and no resize is in
// flight, so a read in isolation stays write-free and the raw-dump twin
// checks keep holding with readers present (DESIGN.md, "The read
// path").
func (s *Set) containsSlow(key int) bool {
	histats.Inc(histats.CtrLookupHelp)
	for {
		st := s.current()
		r := scanRun(st, key, false)
		if r.found {
			return true
		}
		if r.sawGone {
			continue
		}
		helped := false
		for i, g := range r.groups {
			w := r.words[i]
			if m := wordAnyMarked(w); m != 0 {
				histats.Inc(histats.CtrHelpRelocate)
				s.relocateOut(st, m, g, nil)
				helped = true
			} else if swarFlagLanes(w) != 0 {
				s.restore(st, g, nil)
				helped = true
			}
		}
		if helped {
			continue
		}
		if rescanMatches(st, r) && s.st.Load() == st && st.prev.Load() == nil {
			return false
		}
	}
}
