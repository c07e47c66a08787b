package hihash

import (
	"fmt"
	"sort"
	"strings"

	"hiconc/internal/core"
	"hiconc/internal/harness"
	"hiconc/internal/sim"
	"hiconc/internal/spec"
)

// Variant selects the simulated twin's group layout discipline.
type Variant int

const (
	// VariantCanonical keeps every group in priority order (ascending
	// keys) — the history-independent layout.
	VariantCanonical Variant = iota
	// VariantAppend is the ablation: inserts append at the end of the
	// group, so the slot order leaks insertion order. hicheck must refute
	// it already at the sequential level (BuildCanon returns a
	// SeqHIViolation).
	VariantAppend
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == VariantAppend {
		return "append"
	}
	return "canonical"
}

// NewSimHarness builds the lock-step-simulator twin of the table for n
// processes under geometry p: one CAS base object per bucket group, whose
// value is the group's EncodeGroup rendering. Every operation is the same
// code the native port runs — an atomic read for lookups, a read/CAS retry
// loop for updates — so each primitive step is one scheduler step and
// internal/hicheck can machine-check linearizability and history
// independence over every interleaving within its bounds.
func NewSimHarness(p Params, n int, variant Variant) *harness.Harness {
	p.Validate()
	sp := NewSpec(p)
	allOps := sp.Ops(sp.Init())
	procOps := make([][]core.Op, n)
	for i := range procOps {
		procOps[i] = allOps
	}
	return &harness.Harness{
		Name:    fmt.Sprintf("hihash-sim-%v[%v,n=%d]", variant, p, n),
		Spec:    sp,
		ProcOps: procOps,
		Build: func(srcs []harness.OpSource) *sim.Runner {
			mem := sim.NewMemory()
			groups := make([]*sim.CASObj, p.G)
			for g := range groups {
				groups[g] = mem.NewCAS(fmt.Sprintf("g%d", g), EncodeGroup(nil))
			}
			progs := make([]sim.Program, n)
			for pid := 0; pid < n; pid++ {
				src := srcs[pid]
				progs[pid] = func(pr *sim.Proc) {
					for op, ok := src.Next(pr); ok; op, ok = src.Next(pr) {
						runSimOp(pr, groups, p, variant, op)
					}
				}
			}
			return sim.NewRunner(mem, progs)
		},
	}
}

// runSimOp executes one table operation against the simulated groups.
// Lookups are a single read; updates are the lock-free read/CAS retry
// loop of the native port. Inserts of present keys, removes of absent
// keys and inserts into full groups linearize at the read that observed
// the condition and leave the memory untouched.
func runSimOp(pr *sim.Proc, groups []*sim.CASObj, p Params, variant Variant, op core.Op) {
	g := groups[GroupOf(op.Arg, p.G)]
	pr.Invoke(op, op.Name != spec.OpLookup)
	for {
		cur := pr.ReadCAS(g).(string)
		keys := DecodeGroup(cur)
		idx := indexOf(keys, op.Arg)
		switch op.Name {
		case spec.OpLookup:
			if idx >= 0 {
				pr.Return(1)
			} else {
				pr.Return(0)
			}
			return
		case spec.OpInsert:
			if idx >= 0 {
				pr.Return(0)
				return
			}
			if len(keys) >= p.B {
				pr.Return(RspFull)
				return
			}
			var next []int
			if variant == VariantAppend {
				next = append(append([]int(nil), keys...), op.Arg)
			} else {
				next = insertSorted(keys, op.Arg)
			}
			if pr.CAS(g, cur, encodeRaw(next)) {
				pr.Return(0)
				return
			}
		case spec.OpRemove:
			if idx < 0 {
				pr.Return(0)
				return
			}
			next := append(append([]int(nil), keys[:idx]...), keys[idx+1:]...)
			if pr.CAS(g, cur, encodeRaw(next)) {
				pr.Return(0)
				return
			}
		default:
			panic("hihash: sim: unknown op " + op.Name)
		}
	}
}

// encodeRaw renders keys in their given order (EncodeGroup would re-sort,
// masking the append ablation).
func encodeRaw(keys []int) string {
	if len(keys) == 0 {
		return "{}"
	}
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(k)
	}
	return s + "}"
}

// indexOf returns the position of key in keys, or -1.
func indexOf(keys []int, key int) int {
	for i, k := range keys {
		if k == key {
			return i
		}
	}
	return -1
}

// insertSorted returns a copy of keys with key added in ascending
// (priority) order.
func insertSorted(keys []int, key int) []int {
	i := 0
	for i < len(keys) && keys[i] < key {
		i++
	}
	out := make([]int, 0, len(keys)+1)
	out = append(out, keys[:i]...)
	out = append(out, key)
	out = append(out, keys[i:]...)
	return out
}

// --- the displacing twin ------------------------------------------------

// DisplaceVariant selects the displacing twin's delete discipline.
type DisplaceVariant int

const (
	// DisplaceCanonical is the faithful protocol: deletes flag the hole
	// they open and run the backward shift, so the layout converges to
	// the canonical displaced one.
	DisplaceCanonical DisplaceVariant = iota
	// DisplaceNoShift is the ablation: deletes skip the backward shift,
	// leaving displaced keys stranded beyond holes — the slot a key ends
	// in then depends on the deletion history, which the checker must
	// refute already at the sequential level.
	DisplaceNoShift
)

// String implements fmt.Stringer.
func (v DisplaceVariant) String() string {
	if v == DisplaceNoShift {
		return "noshift"
	}
	return "canonical"
}

// simSlot is one slot of a simulated group: a key with its relocation
// mark, or a restore flag.
type simSlot struct {
	key    int
	marked bool
	flag   bool
}

// simGone is the drained-group sentinel of the simulated twin.
const simGone = "gone"

// encodeSlots renders a simulated group canonically: keys ascending
// (marks rendered "k*"), restore flags ("+") after them.
func encodeSlots(slots []simSlot) string {
	sorted := append([]simSlot(nil), slots...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].flag != sorted[j].flag {
			return !sorted[i].flag
		}
		return sorted[i].key < sorted[j].key
	})
	parts := make([]string, len(sorted))
	for i, sl := range sorted {
		switch {
		case sl.flag:
			parts[i] = "+"
		case sl.marked:
			parts[i] = fmt.Sprintf("%d*", sl.key)
		default:
			parts[i] = fmt.Sprint(sl.key)
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// decodeSlots parses an encodeSlots rendering.
func decodeSlots(s string) []simSlot {
	if s == simGone {
		panic("hihash: decodeSlots on a drained group")
	}
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		panic("hihash: bad group encoding " + s)
	}
	body := s[1 : len(s)-1]
	if body == "" {
		return nil
	}
	var out []simSlot
	for _, part := range strings.Split(body, ",") {
		switch {
		case part == "+":
			out = append(out, simSlot{flag: true})
		case strings.HasSuffix(part, "*"):
			var k int
			if _, err := fmt.Sscan(part[:len(part)-1], &k); err != nil {
				panic("hihash: bad group encoding " + s)
			}
			out = append(out, simSlot{key: k, marked: true})
		default:
			var k int
			if _, err := fmt.Sscan(part, &k); err != nil {
				panic("hihash: bad group encoding " + s)
			}
			out = append(out, simSlot{key: k})
		}
	}
	return out
}

// NewDisplaceHarness builds the lock-step-simulator twin of the
// displacing, resizable table for n processes: one CAS base object per
// bucket group of both geometries (level 0: p.G groups; level 1: 2*p.G
// groups) plus a level register, running the same marked-relocation and
// cooperative-migration protocol as the native port (displace.go,
// resize.go), one primitive step per shared-memory access. Because a
// cross-group relocation spans two CAS words, the twin is checked for
// state-quiescent HI (the class the HICHT paper proves) and
// linearizability; perfect HI fails by Proposition 6 and the checker
// exhibits the witness.
func NewDisplaceHarness(p Params, n int, variant DisplaceVariant) *harness.Harness {
	p.Validate()
	sp := NewDisplaceSpec(p)
	allOps := sp.Ops(sp.Init())
	procOps := make([][]core.Op, n)
	for i := range procOps {
		procOps[i] = allOps
	}
	return &harness.Harness{
		Name:    fmt.Sprintf("hihash-displace-%v[%v,n=%d]", variant, p, n),
		Spec:    sp,
		ProcOps: procOps,
		Build: func(srcs []harness.OpSource) *sim.Runner {
			mem := sim.NewMemory()
			lvl := mem.NewCAS("lvl", "0")
			arrs := [2][]*sim.CASObj{make([]*sim.CASObj, p.G), make([]*sim.CASObj, 2*p.G)}
			for g := range arrs[0] {
				arrs[0][g] = mem.NewCAS(fmt.Sprintf("g%d", g), encodeSlots(nil))
			}
			for g := range arrs[1] {
				arrs[1][g] = mem.NewCAS(fmt.Sprintf("n%d", g), encodeSlots(nil))
			}
			progs := make([]sim.Program, n)
			for pid := 0; pid < n; pid++ {
				src := srcs[pid]
				progs[pid] = func(pr *sim.Proc) {
					t := &simTable{pr: pr, p: p, variant: variant, lvl: lvl, arrs: arrs}
					for op, ok := src.Next(pr); ok; op, ok = src.Next(pr) {
						t.runOp(op)
					}
				}
			}
			return sim.NewRunner(mem, progs)
		},
	}
}

// DisplaceCanonicalMemory returns the canonical memory representation of
// a displace-spec state for geometry p, in base-object order (lvl,
// level-0 groups, level-1 groups) — what the twin's memory must equal
// whenever no state-changing operation is pending.
func DisplaceCanonicalMemory(p Params, elems []int, level int) []string {
	out := make([]string, 0, 1+3*p.G)
	out = append(out, fmt.Sprint(level))
	if level == 0 {
		for _, keys := range DisplacedGroups(p, elems) {
			out = append(out, plainSlots(keys))
		}
		for g := 0; g < 2*p.G; g++ {
			out = append(out, encodeSlots(nil))
		}
		return out
	}
	for g := 0; g < p.G; g++ {
		out = append(out, simGone)
	}
	grown := Params{T: p.T, G: 2 * p.G, B: p.B}
	for _, keys := range DisplacedGroups(grown, elems) {
		out = append(out, plainSlots(keys))
	}
	return out
}

// plainSlots encodes sorted keys as an unmarked simulated group.
func plainSlots(keys []int) string {
	slots := make([]simSlot, len(keys))
	for i, k := range keys {
		slots[i] = simSlot{key: k}
	}
	return encodeSlots(slots)
}

// simTable is one process's handle on the simulated displacing table.
type simTable struct {
	pr      *sim.Proc
	p       Params
	variant DisplaceVariant
	lvl     *sim.CASObj
	arrs    [2][]*sim.CASObj
}

// simStatus mirrors the native wstatus for the simulated protocol.
type simStatus int

const (
	simDone simStatus = iota
	simFullStatus
	simRestart
	simLost
)

func (t *simTable) level() int {
	if t.pr.ReadCAS(t.lvl).(string) == "1" {
		return 1
	}
	return 0
}

func (t *simTable) read(lv, g int) (string, []simSlot, bool) {
	s := t.pr.ReadCAS(t.arrs[lv][g]).(string)
	if s == simGone {
		return s, nil, true
	}
	return s, decodeSlots(s), false
}

func (t *simTable) cas(lv, g int, old string, slots []simSlot) bool {
	return t.pr.CAS(t.arrs[lv][g], old, encodeSlots(slots))
}

// groupsAt returns the group count of a level.
func (t *simTable) groupsAt(lv int) int { return t.p.G << lv }

// runOp executes one table operation.
func (t *simTable) runOp(op core.Op) {
	t.pr.Invoke(op, op.Name != spec.OpLookup)
	switch op.Name {
	case spec.OpInsert:
		t.pr.Return(t.insert(op.Arg))
	case spec.OpRemove:
		t.pr.Return(t.remove(op.Arg))
	case spec.OpLookup:
		t.pr.Return(t.lookup(op.Arg))
	case spec.OpGrow:
		t.pr.Return(t.grow())
	default:
		panic("hihash: displace sim: unknown op " + op.Name)
	}
}

// insert places key, responding RspFull only after a validated double
// collect confirmed the table is full at the current level (a transient
// full-looking walk — extra in-flight relocation copies — must not
// produce an unlinearizable RspFull).
func (t *simTable) insert(key int) int {
	for {
		lv := t.level()
		if lv == 1 {
			t.drainGroup(GroupOf(key, t.p.G))
		}
		switch st, _ := t.placeKey(lv, key, -1, nil); st {
		case simDone:
			return 0
		case simFullStatus:
			if full, ok := t.confirmFull(lv, key); ok {
				if full {
					return RspFull
				}
			}
		case simRestart:
		}
	}
}

// confirmFull double-collects the whole level: ok means the two passes
// matched (and key was absent), full means the distinct resident keys
// fill the capacity.
func (t *simTable) confirmFull(lv, key int) (full, ok bool) {
	G := t.groupsAt(lv)
	words := make([]string, G)
	keys := map[int]bool{}
	for g := 0; g < G; g++ {
		s := t.pr.ReadCAS(t.arrs[lv][g]).(string)
		if s == simGone {
			return false, false
		}
		words[g] = s
		for _, sl := range decodeSlots(s) {
			if !sl.flag {
				if sl.key == key {
					return false, false
				}
				keys[sl.key] = true
			}
		}
	}
	for g := 0; g < G; g++ {
		if t.pr.ReadCAS(t.arrs[lv][g]).(string) != words[g] {
			return false, false
		}
	}
	return len(keys) >= G*t.p.B, true
}

// placeKey is the simulated displacement walk: identical decisions to
// the native Set.placeKey, one scheduler step per shared access.
func (t *simTable) placeKey(lv, c, exclude int, chain *relocChain) (simStatus, int) {
	G := t.groupsAt(lv)
	g := GroupOf(c, G)
	for dist := 0; dist < G; {
		s, slots, isGone := t.read(lv, g)
		if isGone {
			return simRestart, dist
		}
		// At the excluded group c's own marked copy is invisible for
		// priority decisions and must never be helped from here (that
		// would recurse into this very call), mirroring the native
		// placeKey.
		view := slots
		if g == exclude {
			view = maskOwnMark(slots, c)
		}
		if i := slotIndex(view, c); i >= 0 {
			if !view[i].marked {
				return simDone, dist
			}
			if st := t.relocateOut(lv, c, g, chain); st != simDone {
				return st, dist
			}
			continue
		}
		if g == exclude {
			// Back at c's own marked source: cancel the relocation in
			// place when the group has room or c outranks an unmarked
			// resident of a full one, mirroring the native walk.
			room := len(slots) < t.p.B || flagIndex(slots) >= 0
			if m := maxUnmarkedSlot(view); room && len(view) < len(slots) || !room && m != 0 && c < m {
				i := slotIndex(slots, c)
				if i < 0 || !slots[i].marked {
					continue
				}
				next := append([]simSlot(nil), slots...)
				next[i] = simSlot{key: c}
				if t.cas(lv, g, s, next) {
					return simDone, dist
				}
				continue
			}
		}
		if len(slots) < t.p.B {
			if t.cas(lv, g, s, append(append([]simSlot(nil), slots...), simSlot{key: c})) {
				return t.placed(lv, c, dist, chain), dist
			}
			continue
		}
		if i := flagIndex(slots); i >= 0 {
			next := append([]simSlot(nil), slots...)
			next[i] = simSlot{key: c}
			if t.cas(lv, g, s, next) {
				return t.placed(lv, c, dist, chain), dist
			}
			continue
		}
		if m := maxUnmarkedSlot(slots); g != exclude && m != 0 && c < m && markedCount(slots) == 0 {
			next := markSlot(slots, m)
			if !t.cas(lv, g, s, next) {
				continue
			}
			st := t.finishEvict(lv, c, m, g, chain)
			if st == simDone {
				return t.placed(lv, c, dist, chain), dist
			}
			if st == simLost {
				continue
			}
			return st, dist
		}
		if c < maxAnySlot(view) {
			// Help any foreign mark but those on chain; a group jammed
			// only by chain marks is passed (see the native relocChain).
			if mk := helpableMarkSlot(view, c, chain); mk != 0 {
				if st := t.relocateOut(lv, mk, g, chain); st != simDone {
					return st, dist
				}
				continue
			}
			if g != exclude && markedCount(view) == 0 {
				continue
			}
		}
		g = (g + 1) % G
		dist++
	}
	return simFullStatus, G
}

// maskOwnMark returns slots with c's marked copy removed (the invisible
// stale source of the relocation being completed).
func maskOwnMark(slots []simSlot, c int) []simSlot {
	for i, sl := range slots {
		if !sl.flag && sl.key == c && sl.marked {
			return append(append([]simSlot(nil), slots[:i]...), slots[i+1:]...)
		}
	}
	return slots
}

// finishEvict mirrors the native finishEvict.
func (t *simTable) finishEvict(lv, c, m, g int, chain *relocChain) simStatus {
	link := relocChain{m, chain}
	if st, _ := t.placeKey(lv, m, g, &link); st != simDone {
		if st == simFullStatus {
			t.unmark(lv, m, g)
			return simFullStatus
		}
		return st
	}
	for {
		s, slots, isGone := t.read(lv, g)
		if isGone {
			return simRestart
		}
		if i := slotIndex(slots, m); i >= 0 && slots[i].marked {
			next := append([]simSlot(nil), slots...)
			next[i] = simSlot{key: c}
			if t.cas(lv, g, s, next) {
				return simDone
			}
			continue
		}
		return simLost
	}
}

// placed is the simulated post-placement validation, mirroring the
// native Set.placed: a key placed at displacement distance > 0 must be
// reachable by a standard probe scan — a racing delete can strand it
// beyond a freed group. The repair loop helps pending restores before
// it, or pulls the key back itself when a settled hole precedes it.
func (t *simTable) placed(lv, c, dist int, chain *relocChain) simStatus {
	if dist == 0 {
		return simDone
	}
	G := t.groupsAt(lv)
	for {
		g := GroupOf(c, G)
		foundAt, cleanAt := -1, -1
		var flagged []int
		for d := 0; d < G; d++ {
			_, slots, isGone := t.read(lv, g)
			if isGone {
				return simRestart
			}
			if slotIndex(slots, c) >= 0 {
				foundAt = g
				break
			}
			if flagIndex(slots) >= 0 {
				flagged = append(flagged, g)
			}
			if cleanSlots(slots, t.p.B) {
				cleanAt = g
				break
			}
			g = (g + 1) % G
		}
		switch {
		case foundAt >= 0 && len(flagged) == 0:
			return simDone
		case foundAt >= 0:
			for _, f := range flagged {
				if st := t.restore(lv, f, chain); st != simDone {
					return st
				}
			}
		case cleanAt >= 0:
			at := t.findKey(lv, c)
			if at < 0 {
				return simDone
			}
			s, slots, isGone := t.read(lv, at)
			if isGone {
				return simRestart
			}
			i := slotIndex(slots, c)
			if i < 0 || slots[i].marked {
				continue
			}
			next := append([]simSlot(nil), slots...)
			next[i] = simSlot{key: c, marked: true}
			if !t.cas(lv, at, s, next) {
				continue
			}
			if st := t.relocateOut(lv, c, at, chain); st != simDone {
				return st
			}
		}
	}
}

// findKey scans every group of a level for c.
func (t *simTable) findKey(lv, c int) int {
	for g := 0; g < t.groupsAt(lv); g++ {
		s := t.pr.ReadCAS(t.arrs[lv][g]).(string)
		if s != simGone && slotIndex(decodeSlots(s), c) >= 0 {
			return g
		}
	}
	return -1
}

// unmark cancels an eviction with no destination.
func (t *simTable) unmark(lv, m, g int) {
	for {
		s, slots, isGone := t.read(lv, g)
		if isGone {
			return
		}
		i := slotIndex(slots, m)
		if i < 0 || !slots[i].marked {
			return
		}
		next := append([]simSlot(nil), slots...)
		next[i] = simSlot{key: m}
		if t.cas(lv, g, s, next) {
			return
		}
	}
}

// relocateOut mirrors the native relocateOut: complete marked key m's
// relocation at group j, releasing the stale slot into a restore flag.
func (t *simTable) relocateOut(lv, m, j int, chain *relocChain) simStatus {
	link := relocChain{m, chain}
	for {
		s, slots, isGone := t.read(lv, j)
		if isGone {
			return simRestart
		}
		i := slotIndex(slots, m)
		if i < 0 || !slots[i].marked {
			return simDone
		}
		if st, _ := t.placeKey(lv, m, j, &link); st != simDone {
			if st == simFullStatus {
				next := append([]simSlot(nil), slots...)
				next[i] = simSlot{key: m}
				if t.cas(lv, j, s, next) {
					return simDone
				}
				continue
			}
			return st
		}
		next := append([]simSlot(nil), slots...)
		next[i] = simSlot{flag: true}
		if t.cas(lv, j, s, next) {
			return t.restore(lv, j, chain)
		}
	}
}

// restore mirrors the native backward shift.
func (t *simTable) restore(lv, g int, chain *relocChain) simStatus {
	G := t.groupsAt(lv)
	for {
		s, slots, isGone := t.read(lv, g)
		if isGone {
			return simRestart
		}
		if flagIndex(slots) < 0 {
			return simDone
		}
		best, bestAt := 0, -1
		j := (g + 1) % G
		for dist := 1; dist < G; dist++ {
			_, js, jGone := t.read(lv, j)
			if jGone {
				break
			}
			for _, sl := range js {
				if sl.flag || sl.marked {
					continue
				}
				if probeCrosses(sl.key, j, g, G) && (best == 0 || sl.key < best) {
					best, bestAt = sl.key, j
				}
			}
			if cleanSlots(js, t.p.B) {
				break
			}
			j = (j + 1) % G
		}
		if best == 0 {
			next := removeFlag(slots)
			if t.cas(lv, g, s, next) {
				return simDone
			}
			continue
		}
		js, jslots, jGone := t.read(lv, bestAt)
		if jGone {
			continue
		}
		i := slotIndex(jslots, best)
		if i < 0 || jslots[i].marked {
			continue
		}
		next := append([]simSlot(nil), jslots...)
		next[i] = simSlot{key: best, marked: true}
		if !t.cas(lv, bestAt, js, next) {
			continue
		}
		if st := t.relocateOut(lv, best, bestAt, chain); st != simDone {
			return st
		}
	}
}

// remove deletes key, flagging the hole and running the backward shift
// (skipped under the DisplaceNoShift ablation).
func (t *simTable) remove(key int) int {
	for {
		lv := t.level()
		if lv == 1 {
			// The key may sit displaced anywhere along its old-array
			// run; finish the whole drain before judging absence.
			for g := 0; g < t.p.G; g++ {
				t.drainGroup(g)
			}
		}
		found, foundAt, marked, words, groups, sawGone := t.scan(lv, key, false)
		if sawGone {
			continue
		}
		if !found {
			if t.validate(lv, groups, words) && t.level() == lv {
				return 0
			}
			continue
		}
		if marked {
			t.relocateOut(lv, key, foundAt, nil)
			continue
		}
		s, slots, isGone := t.read(lv, foundAt)
		if isGone {
			continue
		}
		i := slotIndex(slots, key)
		if i < 0 || slots[i].marked {
			continue
		}
		next := append([]simSlot(nil), slots...)
		if t.variant == DisplaceNoShift {
			next = append(next[:i], next[i+1:]...)
			if t.cas(lv, foundAt, s, next) {
				return 0
			}
			continue
		}
		next[i] = simSlot{flag: true}
		if t.cas(lv, foundAt, s, next) {
			// Keep looping: a migration drain or relocation racing this
			// removal may have copied the key elsewhere; only a
			// validated clean scan on a stable level confirms it is
			// gone everywhere.
			t.restore(lv, foundAt, nil)
		}
	}
}

// simLookupRetryLimit is the sim twin's K, mirroring the native
// lookupRetryLimit: after this many failed validations the reader stops
// spinning and helps (lookupSlow). It is smaller than the native budget
// so the exhaustive checker reaches the slow path within its schedule
// bounds.
const simLookupRetryLimit = 2

// lookup is the bounded-retry validated double collect, old array first
// during a migration, mirroring the native displaceContains: a positive
// answer needs no validation, "absent" must read the same clean words
// twice on a stable level, and after simLookupRetryLimit failed
// validations the reader helps the interference instead (lookupSlow).
func (t *simTable) lookup(key int) int {
	for try := 0; try < simLookupRetryLimit; try++ {
		lv := t.level()
		if lv == 1 {
			if found, _, _, _, _, _ := t.scan(0, key, true); found {
				return 1
			}
			if found, _, _, _, _, _ := t.scan(1, key, false); found {
				return 1
			}
			// Mirrors the native read: a miss mid-resize is never
			// certified (a partly drained old group reads clean).
			return t.lookupSlow(key)
		}
		found, _, _, words, groups, sawGone := t.scan(0, key, false)
		if found {
			return 1
		}
		if sawGone {
			continue
		}
		if t.validate(0, groups, words) && t.level() == 0 {
			return 0
		}
	}
	return t.lookupSlow(key)
}

// lookupSlow is the sim mirror of the native containsSlow: drive any
// in-flight migration to completion first (like updates do), then scan
// the run, help every relocation mark and restore flag met, and answer
// once a pass finds the key or validates clean on a stable level.
func (t *simTable) lookupSlow(key int) int {
	for {
		lv := t.level()
		if lv == 1 {
			// The key may sit displaced anywhere along its old-array run;
			// finish the whole drain before judging absence (the native
			// slow path's current() does the same).
			for g := 0; g < t.p.G; g++ {
				t.drainGroup(g)
			}
		}
		found, _, _, words, groups, sawGone := t.scan(lv, key, false)
		if found {
			return 1
		}
		if sawGone {
			continue
		}
		helped := false
		for i, g := range groups {
			if words[i] == simGone {
				continue
			}
			for _, sl := range decodeSlots(words[i]) {
				if sl.marked {
					t.relocateOut(lv, sl.key, g, nil)
					helped = true
					break
				}
				if sl.flag {
					t.restore(lv, g, nil)
					helped = true
					break
				}
			}
		}
		if helped {
			continue
		}
		if t.validate(lv, groups, words) && t.level() == lv {
			return 0
		}
	}
}

// scan is one probe-run pass at a level; treatGoneFull keeps scanning
// past drained groups (old array during migration).
func (t *simTable) scan(lv, key int, treatGoneFull bool) (found bool, foundAt int, marked bool, words []string, groups []int, sawGone bool) {
	G := t.groupsAt(lv)
	g := GroupOf(key, G)
	for dist := 0; dist < G; dist++ {
		s := t.pr.ReadCAS(t.arrs[lv][g]).(string)
		words = append(words, s)
		groups = append(groups, g)
		if s == simGone {
			sawGone = true
			if !treatGoneFull {
				return
			}
			g = (g + 1) % G
			continue
		}
		slots := decodeSlots(s)
		if i := slotIndex(slots, key); i >= 0 {
			found, foundAt, marked = true, g, slots[i].marked
			return
		}
		if cleanSlots(slots, t.p.B) {
			return
		}
		g = (g + 1) % G
	}
	return
}

// validate re-reads a scan's words.
func (t *simTable) validate(lv int, groups []int, words []string) bool {
	for i, g := range groups {
		if t.pr.ReadCAS(t.arrs[lv][g]).(string) != words[i] {
			return false
		}
	}
	return true
}

// grow flips the level register and migrates every level-0 group.
func (t *simTable) grow() int {
	if t.level() == 1 {
		return 0
	}
	if !t.pr.CAS(t.lvl, "0", "1") {
		return 0
	}
	for g := 0; g < t.p.G; g++ {
		t.drainGroup(g)
	}
	return 0
}

// drainGroup migrates one level-0 group: destination first, then drop,
// then stamp gone. Restore flags are dropped, marked keys moved like
// plain ones.
func (t *simTable) drainGroup(g int) {
	for {
		s := t.pr.ReadCAS(t.arrs[0][g]).(string)
		if s == simGone {
			return
		}
		slots := decodeSlots(s)
		if i := flagIndex(slots); i >= 0 {
			next := append([]simSlot(nil), slots...)
			next = append(next[:i], next[i+1:]...)
			t.cas(0, g, s, next)
			continue
		}
		if len(slots) == 0 {
			t.pr.CAS(t.arrs[0][g], s, simGone)
			continue
		}
		key := slots[0].key
		if st, _ := t.placeKey(1, key, -1, nil); st != simDone {
			continue
		}
		next := append([]simSlot(nil), slots[1:]...)
		t.cas(0, g, s, next)
	}
}

// --- simSlot helpers ----------------------------------------------------

func slotIndex(slots []simSlot, key int) int {
	for i, sl := range slots {
		if !sl.flag && sl.key == key {
			return i
		}
	}
	return -1
}

func flagIndex(slots []simSlot) int {
	for i, sl := range slots {
		if sl.flag {
			return i
		}
	}
	return -1
}

func maxUnmarkedSlot(slots []simSlot) int {
	max := 0
	for _, sl := range slots {
		if !sl.flag && !sl.marked && sl.key > max {
			max = sl.key
		}
	}
	return max
}

func maxAnySlot(slots []simSlot) int {
	max := 0
	for _, sl := range slots {
		if !sl.flag && sl.key > max {
			max = sl.key
		}
	}
	return max
}

// helpableMarkSlot mirrors the native helpableMark: the first marked
// key of slots other than c and the keys on chain, or 0.
func helpableMarkSlot(slots []simSlot, c int, chain *relocChain) int {
	for _, sl := range slots {
		if sl.marked && sl.key != c && !chain.holds(sl.key) {
			return sl.key
		}
	}
	return 0
}

func markedCount(slots []simSlot) int {
	n := 0
	for _, sl := range slots {
		if sl.marked {
			n++
		}
	}
	return n
}

func markSlot(slots []simSlot, key int) []simSlot {
	out := append([]simSlot(nil), slots...)
	for i, sl := range out {
		if !sl.flag && sl.key == key {
			out[i].marked = true
		}
	}
	return out
}

func removeFlag(slots []simSlot) []simSlot {
	out := append([]simSlot(nil), slots...)
	for i, sl := range out {
		if sl.flag {
			return append(out[:i], out[i+1:]...)
		}
	}
	return out
}

// cleanSlots reports a settled, non-full simulated group: no marks, no
// flags, spare capacity.
func cleanSlots(slots []simSlot, capacity int) bool {
	if len(slots) >= capacity {
		return false
	}
	for _, sl := range slots {
		if sl.flag || sl.marked {
			return false
		}
	}
	return true
}
