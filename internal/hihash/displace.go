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
// stay instrumentation-free and allocation-free (the collect records
// live in a fixed-size stack buffer; TestLookupAllocs pins this).

import (
	"math/bits"

	"hiconc/internal/histats"
)

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

// placeKey walks key c's probe run in st and ensures c is present,
// evicting larger residents in ordered Robin Hood priority as needed. A
// marked copy of c at group exclude (the stale source of a relocation
// being completed) is treated as invisible and never re-placed there,
// and the marks of chain — the relocations this goroutine is already
// completing — are never helped. It returns the walk distance of the
// decisive group.
func (s *Set) placeKey(st *tableState, c, exclude int, chain *relocChain) (wstatus, int) {
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
			if exclude >= 0 {
				// This walk is already completing a relocation of c out
				// of exclude, yet c has a second marked copy here — an
				// abandoned relocation (a crashed or long-parked thread)
				// whose source a later insert refilled. Helping it would
				// recurse into helping ourselves forever; cancel it in
				// place instead — the twin becomes c's landed copy and
				// the caller releases the copy at exclude.
				if st.groups[g].CompareAndSwap(w, wordReplace(w, uint64(c)|slotMark, uint64(c))) {
					stepAt(SpEvictSwap)
					return wsDone, dist
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
			// Back at c's own marked source, c stays — the relocation is
			// cancelled in place, which is the placement — when the
			// group has room for c (a second, unmarked c beside the mark
			// would leave a group restore cannot pull from: it would
			// pick the unmarked copy, meet the marked one first and
			// retry forever), or when the group is full and c outranks
			// an unmarked resident (the relocation is obsolete: a larger
			// key claimed a freed slot while the mark was parked).
			room := wordZeros(w) > 0 || wordFlags(w) > 0
			if m := wordMaxUnmarked(view); room && view != w || !room && m != 0 && c < m {
				if st.groups[g].CompareAndSwap(w, wordReplace(w, uint64(c)|slotMark, uint64(c))) {
					stepAt(SpEvictSwap)
					return wsDone, dist
				}
				histats.Inc(histats.CtrHashCASFail)
				continue
			}
		}
		if wordZeros(w) > 0 {
			if st.groups[g].CompareAndSwap(w, wordAdd(w, uint64(c))) {
				stepAt(SpDestWritten)
				return s.placed(st, c, dist, chain), dist
			}
			histats.Inc(histats.CtrHashCASFail)
			continue
		}
		if wordFlags(w) > 0 {
			// A flagged hole is free for placement; claiming it cancels
			// that branch of the backward shift (the canonical layout
			// gives the hole to c).
			if st.groups[g].CompareAndSwap(w, wordReplace(w, flagSlot, uint64(c))) {
				stepAt(SpDestWritten)
				return s.placed(st, c, dist, chain), dist
			}
			histats.Inc(histats.CtrHashCASFail)
			continue
		}
		if m := wordMaxUnmarked(w); g != exclude && m != 0 && c < m && wordMarks(w) == 0 {
			// Ordered Robin Hood eviction: mark the largest resident,
			// place it further along its run, then swap the stale mark
			// for c in one CAS on this word.
			if !st.groups[g].CompareAndSwap(w, wordReplace(w, uint64(m), uint64(m)|slotMark)) {
				histats.Inc(histats.CtrHashCASFail)
				continue
			}
			stepAt(SpMarkSet)
			rs := s.finishEvict(st, c, m, g, chain)
			if rs == wsDone {
				return s.placed(st, c, dist, chain), dist
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
// for c in a single CAS. wsLost means a helper released the mark first
// and c still needs a slot.
func (s *Set) finishEvict(st *tableState, c, m, g int, chain *relocChain) wstatus {
	link := relocChain{m, chain}
	if rs, _ := s.placeKey(st, m, g, &link); rs != wsDone {
		if rs == wsFull {
			// Nowhere for m to land: cancel the eviction so the mark
			// cannot dangle, then report full.
			s.unmark(st, m, g)
			return wsFull
		}
		return rs
	}
	for {
		w := st.groups[g].Load()
		if w == gone {
			return wsRestart
		}
		if i := wordFind(w, m); i >= 0 && slotAt(w, i)&slotMark != 0 {
			if st.groups[g].CompareAndSwap(w, wordReplace(w, uint64(m)|slotMark, uint64(c))) {
				stepAt(SpEvictSwap)
				return wsDone
			}
			histats.Inc(histats.CtrHashCASFail)
			continue
		}
		return wsLost
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
func (s *Set) placed(st *tableState, c, dist int, chain *relocChain) wstatus {
	if dist == 0 {
		// A key in its home group is always reachable.
		return wsDone
	}
	G := len(st.groups)
	for {
		g := GroupOf(c, G)
		foundAt, cleanAt := -1, -1
		var flagged []int
		for d := 0; d < G; d++ {
			w := st.groups[g].Load()
			if w == gone {
				return wsRestart
			}
			if wordFind(w, c) >= 0 {
				foundAt = g
				break
			}
			if wordFlags(w) > 0 {
				flagged = append(flagged, g)
			}
			if wordClean(w) {
				cleanAt = g
				break
			}
			g = (g + 1) % G
		}
		switch {
		case foundAt >= 0 && len(flagged) == 0:
			return wsDone
		case foundAt >= 0:
			// A backward shift is pending before c: drive it so it sees
			// c (or clears), then re-validate.
			for _, f := range flagged {
				if rs := s.restore(st, f, chain); rs != wsDone {
					return rs
				}
			}
		case cleanAt >= 0:
			// c stranded beyond a settled free group: pull it back
			// ourselves via a marked relocation.
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
			if !st.groups[at].CompareAndSwap(w, wordReplace(w, uint64(c), uint64(c)|slotMark)) {
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

// findKey scans every group for c, returning its group or -1. The
// broadcast is hoisted: the whole sweep is one load, one XOR-mask and
// one zero-lane test per group. (gone cannot false-match: its lanes
// carry the reserved key 0x7FFF, which no probe key equals.)
func (s *Set) findKey(st *tableState, c int) int {
	bcast := swarBroadcast(c)
	for g := range st.groups {
		if swarKeyLanes(st.groups[g].Load(), bcast) != 0 {
			return g
		}
	}
	return -1
}

// unmark restores a marked key in place (used to cancel an eviction that
// found no destination).
func (s *Set) unmark(st *tableState, m, g int) {
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
	for {
		w := st.groups[j].Load()
		if w == gone {
			return wsRestart
		}
		i := wordFind(w, m)
		if i < 0 || slotAt(w, i)&slotMark == 0 {
			return wsDone
		}
		rs, dist := s.placeKey(st, m, j, &link)
		if rs != wsDone {
			if rs == wsFull {
				// No destination (table momentarily full): cancel by
				// restoring the mark. Like unmark, this rewinds to the
				// exact pre-SpMarkSet word, so crashing here opens no
				// window the matrix does not already sweep.
				//hilint:allow steppoint (cancel CAS restores the pre-SpMarkSet word; no new crash window)
				if st.groups[j].CompareAndSwap(w, wordReplace(w, uint64(m)|slotMark, uint64(m))) {
					return wsDone
				}
				continue
			}
			return rs
		}
		if st.groups[j].CompareAndSwap(w, wordReplace(w, uint64(m)|slotMark, flagSlot)) {
			stepAt(SpSourceCleared)
			histats.Observe(histats.HistRelocDist, uint64(dist))
			return s.restore(st, j, chain)
		}
		histats.Inc(histats.CtrHashCASFail)
	}
}

// restore runs the backward shift for a restore flag at group g: find
// the smallest key beyond g whose probe run crossed g, pull it back into
// the hole (via a marked relocation whose walk lands exactly there), and
// cascade. If no key crossed the hole the flag is simply cleared — the
// layout was already canonical.
func (s *Set) restore(st *tableState, g int, chain *relocChain) wstatus {
	G := len(st.groups)
	for {
		w := st.groups[g].Load()
		if w == gone {
			return wsRestart
		}
		if wordFlags(w) == 0 {
			return wsDone
		}
		best, bestAt := 0, -1
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
		if best == 0 {
			if st.groups[g].CompareAndSwap(w, wordReplace(w, flagSlot, 0)) {
				stepAt(SpFlagCleared)
				return wsDone
			}
			histats.Inc(histats.CtrHashCASFail)
			continue
		}
		// Pull best back: mark it, and complete the relocation — its
		// placement walk starts at its home group, so it lands in the
		// flagged hole here (or an even earlier one), then cascades.
		wj := st.groups[bestAt].Load()
		if wj == gone {
			continue
		}
		if i := wordFind(wj, best); i < 0 || slotAt(wj, i)&slotMark != 0 {
			continue
		}
		if !st.groups[bestAt].CompareAndSwap(wj, wordReplace(wj, uint64(best), uint64(best)|slotMark)) {
			histats.Inc(histats.CtrHashCASFail)
			continue
		}
		stepAt(SpMarkSet)
		if rs := s.relocateOut(st, best, bestAt, chain); rs != wsDone {
			return rs
		}
	}
}

// scanCap is the record capacity of the fast-path probe scan: probe
// runs stay far shorter than this in practice (an insert that walks
// probeLimit groups already grows the table), so the common case
// records into fixed stack buffers and the lookup fast path allocates
// nothing. A pathological run longer than scanCap sets long instead —
// the fast path then cannot validate and falls through to the slow
// path, whose slice-based collect has no length cap.
const scanCap = 32

// probeScan is one fixed-buffer pass of a probe-run scan for key on the
// lookup fast path: it reads along key's run until a clean group (or a
// full cycle), recording every word read for validation. found reports
// the key seen (marked counts — a marked key is logically present).
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
// used by the update and slow lookup paths (where a cold allocation is
// fine and runs must have no length cap). found reports the key seen
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
		rs, dist := s.placeKey(st, key, -1, nil)
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
// loop chases every copy until a clean pass finds none.
func (s *Set) displaceRemove(key int) int {
	for {
		st := s.current()
		r := scanRun(st, key, false)
		if r.sawGone {
			continue
		}
		if !r.found {
			if at := s.findKey(st, key); at >= 0 {
				// A physical copy beyond the validated probe run: the
				// ghost of a relocation whose owner died after the
				// destination copy was separately removed. Scans can
				// never reach it, but a drain would faithfully migrate
				// (resurrect) it — chase it like a found copy.
				w := st.groups[at].Load()
				i := wordFind(w, key)
				if i < 0 {
					continue
				}
				r.found, r.foundAt = true, at
				r.foundMarked = slotAt(w, i)&slotMark != 0
			} else if st.prev.Load() == nil && rescanMatches(st, r) && s.st.Load() == st {
				// Migration in flight would let the key hide in the old
				// table; current drains it first, so once prev is gone a
				// validated clean scan over a ghost-free table confirms
				// absence.
				return 0
			} else {
				continue
			}
		}
		if r.foundMarked {
			// Resolve the in-flight relocation first: removing a copy
			// while a marked twin survives could resurrect the key.
			histats.Inc(histats.CtrHelpRelocate)
			s.relocateOut(st, key, r.foundAt, nil)
			continue
		}
		w := st.groups[r.foundAt].Load()
		if w == gone {
			continue
		}
		if i := wordFind(w, key); i < 0 || slotAt(w, i)&slotMark != 0 {
			continue
		}
		if st.groups[r.foundAt].CompareAndSwap(w, wordReplace(w, uint64(key), flagSlot)) {
			stepAt(SpFlagPlaced)
			s.restore(st, r.foundAt, nil)
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
