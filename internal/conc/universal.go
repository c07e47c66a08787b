package conc

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"hiconc/internal/core"
	"hiconc/internal/histats"
	"hiconc/internal/spec"
)

// Applier is the common interface of the native universal construction and
// its baselines: a linearizable shared object accepting abstract operations.
// pid identifies the calling process and must be unique per concurrent
// caller (0 <= pid < n).
type Applier interface {
	// Apply executes op on behalf of process pid and returns its response.
	Apply(pid int, op core.Op) int
	// Name identifies the implementation in benchmark output.
	Name() string
}

// rspRec is one response record ⟨rsp, proc⟩ of a head value.
type rspRec struct {
	rsp  int
	proc int
}

// headState mirrors the paper's ⟨state, r⟩ head value: the abstract state
// plus its response records (⊥ when it has none). Algorithm 5 stores at
// most one record, kept inline in rec; the combining extension installs a
// batch of two or more records in batch, one per folded operation,
// linearized in slice order at the installing SC.
type headState struct {
	state any
	one   bool // rec holds the single response record
	rec   rspRec
	batch []rspRec
}

// withRecs returns ⟨state, recs⟩, keeping a single record inline.
func withRecs(state any, recs []rspRec) headState {
	if len(recs) == 1 {
		return headState{state: state, one: true, rec: recs[0]}
	}
	return headState{state: state, batch: recs}
}

// numRecs returns the number of response records.
func (h *headState) numRecs() int {
	if h.one {
		return 1
	}
	return len(h.batch)
}

// recAt returns the k-th response record in linearization order.
func (h *headState) recAt(k int) rspRec {
	if h.one {
		return h.rec
	}
	return h.batch[k]
}

// hasRec reports whether h holds a record for process i.
func (h *headState) hasRec(i int) bool {
	for k := 0; k < h.numRecs(); k++ {
		if h.recAt(k).proc == i {
			return true
		}
	}
	return false
}

type annKind int

const (
	annBot annKind = iota
	annOp
	annRsp
)

// annState mirrors the announce cell contents: ⊥, an operation, or a
// response.
type annState struct {
	kind annKind
	op   core.Op
	rsp  int
}

// pad keeps per-process fields on distinct cache lines.
type pad struct {
	v int
	_ [56]byte
}

// Combiner is an optional extension of Object enabling operation combining:
// when a process detects contention on head, it may fold several announced
// operations into a single SC, provided the object vouches that they commute
// as state updates. Responses need not commute — the batch is linearized in
// a fixed order and each response is computed from that order.
type Combiner interface {
	// Combinable reports whether a and b commute as state transformations
	// (Δ(Δ(q,a),b) and Δ(Δ(q,b),a) reach the same state for every q), so
	// both may be folded into one linearization batch. It is only called
	// for state-changing operations and must be symmetric.
	Combinable(a, b core.Op) bool
}

// pendingOp is an announced operation selected for a batch.
type pendingOp struct {
	op   core.Op
	proc int
}

// Universal is the native Algorithm 5: a wait-free, state-quiescent
// history-independent universal construction over R-LLSC Cells. When Leaky
// is set the clearing steps (line 28's announce reset and the red RL lines)
// are skipped — the construction remains linearizable and wait-free but
// retains responses and contexts, the ablation measured by experiment E12.
// When comb is set (NewCombiningUniversal), a process whose SC on head
// failed folds all announced mutually-commuting operations into its next
// attempt, installing a batch of response records with one SC.
type Universal struct {
	obj   Object
	n     int
	leaky bool
	comb  Combiner
	head  *Cell[headState]
	ann   []*Cell[annState]
	prio  []pad
}

var _ Applier = (*Universal)(nil)

// NewUniversal returns a fresh instance of the construction for n processes.
func NewUniversal(obj Object, n int) *Universal {
	return newUniversal(obj, n, false, nil)
}

// NewLeakyUniversal returns the non-clearing ablation.
func NewLeakyUniversal(obj Object, n int) *Universal {
	return newUniversal(obj, n, true, nil)
}

// NewCombiningUniversal returns an instance with operation combining
// enabled; obj must implement Combiner. Combining preserves linearizability,
// wait-freedom and state-quiescent HI: batches are applied atomically by the
// same head SC that Algorithm 5 uses for a single operation, and every
// clearing step still runs per announced operation.
func NewCombiningUniversal(obj Object, n int) *Universal {
	comb, ok := obj.(Combiner)
	if !ok {
		panic(fmt.Sprintf("conc: object %s does not implement Combiner", obj.Name()))
	}
	return newUniversal(obj, n, false, comb)
}

func newUniversal(obj Object, n int, leaky bool, comb Combiner) *Universal {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("conc: n = %d out of range 1..64", n))
	}
	u := &Universal{
		obj:   obj,
		n:     n,
		leaky: leaky,
		comb:  comb,
		head:  NewCell(headState{state: obj.Init()}),
		ann:   make([]*Cell[annState], n),
		prio:  make([]pad, n),
	}
	for i := range u.ann {
		u.ann[i] = NewCell(annState{})
		u.prio[i].v = i
	}
	return u
}

// Name implements Applier.
func (u *Universal) Name() string {
	switch {
	case u.leaky:
		return "universal-leaky"
	case u.comb != nil:
		return "universal-hi-combining"
	default:
		return "universal-hi"
	}
}

// N returns the number of processes.
func (u *Universal) N() int { return u.n }

func (u *Universal) loadAnn(j int) annState { return u.ann[j].Load() }

// Apply implements Applier; it is Algorithm 5's Apply/ApplyReadOnly
// dispatch.
func (u *Universal) Apply(pid int, op core.Op) int {
	if u.obj.ReadOnly(op) {
		st := u.head.Load().state
		_, rsp := u.obj.Apply(st, op)
		return rsp
	}
	return u.applyUpdate(pid, op)
}

// applyUpdate is the state-changing path (Algorithm 5 lines 4-29), with the
// same line structure as the simulated implementation in
// internal/universal. The batch generalization: head may carry several
// response records, all of which are posted (lines 17-20, once per record)
// before the head is cleared (line 21).
func (u *Universal) applyUpdate(i int, op core.Op) int {
	u.ann[i].Store(annState{kind: annOp, op: op}) // Line 4
	prio := &u.prio[i].v
	done := func() bool { return u.loadAnn(i).kind == annRsp }
	contended := false

	for !done() { // Line 5
		h, ok := u.head.LLWithAbort(i, done) // Line 6 (+6R escape)
		if !ok {
			break
		}
		if h.numRecs() == 0 { // Line 7: mode A
			var next headState
			combined, helped := false, false
			if u.comb != nil && contended {
				batch, ok := u.gatherBatch(i, op, *prio)
				if !ok { // Line 11
					continue
				}
				st := h.state
				recs := make([]rspRec, len(batch))
				for k, b := range batch {
					var rsp int
					st, rsp = u.obj.Apply(st, b.op) // Line 13
					recs[k] = rspRec{rsp: rsp, proc: b.proc}
				}
				next = withRecs(st, recs)
				combined = true
			} else {
				var applyOp core.Op
				var j int
				if help := u.loadAnn(*prio); help.kind == annOp { // Lines 8-9
					applyOp, j = help.op, *prio
					helped = j != i
				} else {
					if u.loadAnn(i).kind != annOp { // Line 11
						continue
					}
					applyOp, j = op, i // Line 12
				}
				st, rsp := u.obj.Apply(h.state, applyOp) // Line 13
				next = headState{state: st, one: true, rec: rspRec{rsp: rsp, proc: j}}
			}
			if u.head.SC(i, next) { // Line 14
				if combined {
					histats.Step(histats.CtrCombineBatch)
					histats.Observe(histats.HistBatchSize, uint64(next.numRecs()))
				}
				if helped {
					histats.Step(histats.CtrUniversalHelp)
				}
				*prio = (*prio + 1) % u.n // Line 15
				contended = false
			} else {
				histats.Step(histats.CtrHeadRetry)
				contended = true
			}
			continue
		}
		posted, escaped := u.postRecs(i, &h, done, false) // Lines 17-20 per record
		if escaped {
			break
		}
		if posted {
			u.head.SC(i, headState{state: h.state}) // Line 21
		}
	}

	return u.finish(i) // Lines 24-29
}

// finish is lines 24-29: process i takes the response posted in its
// announce cell, erases its own record from head if one is still there,
// and resets the cell. The line 27 RL releases the link of i's last line
// 6 LL when no line 26 SC replaced that head: i can link a head that no
// longer holds its record (a helper posted i's response and cleared the
// record first), find the response at line 5 and leave the loop linked.
func (u *Universal) finish(i int) int {
	response := u.loadAnn(i) // Line 24
	if response.kind != annRsp {
		panic(fmt.Sprintf("conc: p%d reached line 24 without a response", i))
	}
	// Line 25 (+25R escape). The escape condition is polled before the
	// first LL step, a legal schedule of the ∥: a process whose record is
	// already gone, typically cleared by its own line 21 SC, does no LL, and
	// its line 27 RL writes only if a line 6 link is still in place.
	gone := func() bool {
		h := u.head.Load()
		return !h.hasRec(i)
	}
	cleared := false
	if !gone() {
		if h, ok := u.head.LLWithAbort(i, gone); ok && h.hasRec(i) { // Line 26
			// Before erasing a record that may cover other processes'
			// operations, post their responses (the caller already holds its
			// own); abandon if the head moves under us — whoever moved it
			// posted everything first.
			posted := true
			if h.numRecs() > 1 {
				posted, _ = u.postRecs(i, &h, func() bool { return !u.head.VL(i) }, true)
			}
			if posted {
				cleared = u.head.SC(i, headState{state: h.state})
			}
		}
	}
	if !cleared && !u.leaky {
		u.head.RL(i) // Line 27 (red)
	}
	if !u.leaky {
		u.ann[i].Store(annState{}) // Line 28
	}
	return response.rsp // Line 29
}

// postRecs runs lines 17-20 (and the line 22 release) once per response
// record of h: each pending response is SC'd into its announce cell under a
// valid head link. It reports posted = true when every record was handled
// with the head link intact (so the caller may attempt the line 21 clearing
// SC), and escaped = true when the abort condition fired mid-LL (line 18R:
// the caller proceeds to line 24). skipSelf omits the caller's own record,
// used on the line 26 path where the caller already consumed its response.
func (u *Universal) postRecs(i int, h *headState, abort func() bool, skipSelf bool) (posted, escaped bool) {
	for k := 0; k < h.numRecs(); k++ {
		rec := h.recAt(k)
		if skipSelf && rec.proc == i {
			continue
		}
		a, ok := u.ann[rec.proc].LLWithAbort(i, abort) // Line 18 (+18R escape)
		if !ok {
			u.ann[rec.proc].RL(i) // Line 18R.2
			return false, true
		}
		if !u.head.VL(i) { // Line 19
			if a.kind == annBot && !u.leaky { // Line 22 (red)
				u.ann[rec.proc].RL(i)
			}
			return false, false
		}
		if a.kind == annOp { // Line 20
			u.ann[rec.proc].SC(i, annState{kind: annRsp, rsp: rec.rsp})
		}
		if a.kind == annBot && !u.leaky { // Line 22 (red)
			u.ann[rec.proc].RL(i)
		}
	}
	return true, false
}

// gatherBatch selects the operations folded into the next SC on head when
// combining is armed (the caller's previous SC attempt failed), in
// linearization order. The mandatory Algorithm 5 choice comes first: the
// priority process's announced operation if one is pending, otherwise the
// caller's own (lines 8-12; ok = false reproduces the line 11 recheck).
// Every other announced operation that commutes with the whole batch is
// appended in ascending process order.
func (u *Universal) gatherBatch(i int, op core.Op, prio int) ([]pendingOp, bool) {
	var first pendingOp
	if help := u.loadAnn(prio); help.kind == annOp { // Lines 8-9
		first = pendingOp{op: help.op, proc: prio}
	} else {
		if u.loadAnn(i).kind != annOp { // Line 11
			return nil, false
		}
		first = pendingOp{op: op, proc: i} // Line 12
	}
	batch := append(make([]pendingOp, 0, u.n), first)
	for j := 0; j < u.n; j++ {
		if j == first.proc {
			continue
		}
		a := u.loadAnn(j)
		if a.kind != annOp {
			continue
		}
		fits := true
		for _, b := range batch {
			if !u.comb.Combinable(b.op, a.op) {
				fits = false
				break
			}
		}
		if fits {
			batch = append(batch, pendingOp{op: a.op, proc: j})
		}
	}
	return batch, true
}

// State returns the current abstract state (the val component of head).
func (u *Universal) State() any { return u.head.Load().state }

// Snapshot renders the logical memory representation — every cell's
// (val, context) pair — for history-independence checks at quiescent
// barriers.
func (u *Universal) Snapshot() string {
	var b strings.Builder
	h, ctx := u.head.Snapshot()
	switch h.numRecs() {
	case 0:
		fmt.Fprintf(&b, "head=<%v,_>/ctx=%b", h.state, ctx)
	case 1:
		fmt.Fprintf(&b, "head=<%v,<%d,p%d>>/ctx=%b", h.state, h.recAt(0).rsp, h.recAt(0).proc, ctx)
	default:
		fmt.Fprintf(&b, "head=<%v,[", h.state)
		for k, r := range h.batch {
			if k > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "<%d,p%d>", r.rsp, r.proc)
		}
		fmt.Fprintf(&b, "]>/ctx=%b", ctx)
	}
	for i, c := range u.ann {
		a, ctx := c.Snapshot()
		switch a.kind {
		case annBot:
			fmt.Fprintf(&b, " | ann%d=_/ctx=%b", i, ctx)
		case annOp:
			fmt.Fprintf(&b, " | ann%d=%v/ctx=%b", i, a.op, ctx)
		case annRsp:
			fmt.Fprintf(&b, " | ann%d=r%d/ctx=%b", i, a.rsp, ctx)
		}
	}
	return b.String()
}

// CanonicalSnapshot returns the canonical memory representation of abstract
// state q for an n-process instance: head holds ⟨q,⊥⟩ with an empty context
// and every announce cell holds ⊥ with an empty context.
func CanonicalSnapshot(obj Object, n int, q any) string {
	u := newUniversal(obj, n, false, nil)
	u.head.Store(headState{state: q})
	return u.Snapshot()
}

// MutexObject is the coarse-grained baseline: the abstract state behind a
// single mutex. It is trivially history independent but blocking.
type MutexObject struct {
	mu    sync.Mutex
	obj   Object
	state any
}

var _ Applier = (*MutexObject)(nil)

// NewMutexObject returns a mutex-guarded instance of obj.
func NewMutexObject(obj Object) *MutexObject {
	return &MutexObject{obj: obj, state: obj.Init()}
}

// Name implements Applier.
func (m *MutexObject) Name() string { return "mutex" }

// Apply implements Applier.
func (m *MutexObject) Apply(_ int, op core.Op) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var rsp int
	m.state, rsp = m.obj.Apply(m.state, op)
	return rsp
}

// SyncMapSet adapts sync.Map to the set Applier interface as the
// standard-library baseline for the E21 hash-table benchmarks. It is
// linearizable and lock-free in the common case but not history
// independent: sync.Map's internal read/dirty structure depends on the
// operation history, not only on the key set.
type SyncMapSet struct{ m sync.Map }

var _ Applier = (*SyncMapSet)(nil)

// NewSyncMapSet returns a fresh baseline instance.
func NewSyncMapSet() *SyncMapSet { return &SyncMapSet{} }

// Name implements Applier.
func (s *SyncMapSet) Name() string { return "sync.Map" }

// Apply implements Applier.
func (s *SyncMapSet) Apply(_ int, op core.Op) int {
	switch op.Name {
	case spec.OpInsert:
		s.m.Store(op.Arg, struct{}{})
		return 0
	case spec.OpRemove:
		s.m.Delete(op.Arg)
		return 0
	case spec.OpLookup:
		if _, ok := s.m.Load(op.Arg); ok {
			return 1
		}
		return 0
	default:
		panic("conc: sync.Map set: unknown op " + op.Name)
	}
}

// NoHelpUniversal is the Herlihy-style lock-free baseline: a bare CAS loop
// on the state with no announcing and no helping. It is linearizable and
// trivially HI at quiescence (only the state is stored) but not wait-free —
// a process can fail its CAS forever.
type NoHelpUniversal struct {
	obj   Object
	state atomic.Pointer[any]
}

var _ Applier = (*NoHelpUniversal)(nil)

// NewNoHelpUniversal returns a fresh lock-free baseline instance.
func NewNoHelpUniversal(obj Object) *NoHelpUniversal {
	l := &NoHelpUniversal{obj: obj}
	init := obj.Init()
	l.state.Store(&init)
	return l
}

// Name implements Applier.
func (l *NoHelpUniversal) Name() string { return "cas-nohelp" }

// Apply implements Applier.
func (l *NoHelpUniversal) Apply(_ int, op core.Op) int {
	if l.obj.ReadOnly(op) {
		_, rsp := l.obj.Apply(*l.state.Load(), op)
		return rsp
	}
	for {
		cur := l.state.Load()
		st, rsp := l.obj.Apply(*cur, op)
		if l.state.CompareAndSwap(cur, &st) {
			return rsp
		}
	}
}

// State returns the current abstract state.
func (l *NoHelpUniversal) State() any { return *l.state.Load() }
