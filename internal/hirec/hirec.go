// Package hirec is the flight recorder of the native HICHT stack: it
// captures what goroutines actually did — operation invocations and
// responses at the API layer (internal/obj, internal/shard) and labeled
// protocol steps inside internal/hihash and internal/conc — so that real
// executions, not just their simulated twins, can be machine-checked
// after the fact (post-hoc linearizability via internal/linearize,
// experiment E25) and rendered as timelines (trace.NativeTimeline, a
// Chrome-trace export).
//
// A Recorder is installed in internal/histats' observer slot
// (histats.Record), whose sites record into it. Events land in
// per-goroutine lanes of preallocated buffers — a slot is claimed with
// one atomic add, stamped with a global sequence number and a coarse
// wall-clock timestamp, and sealed with one atomic store — so recording
// never takes a lock and never blocks the recorded protocol. A lane that
// fills up drops further events and counts them; extraction to a
// checkable history refuses recordings with drops (a history with holes
// proves nothing), while the trace exporters accept them.
//
// Like histats, the recorder is history by definition and must live
// outside the history-independence boundary: it never touches the
// objects' shared representation, and the objects never read it. The
// E23/E24-style twin gates are rerun with the recorder installed
// (TestInstrumentedDumpsIdentical, the E25 driver) to machine-check
// that raw dumps stay bit-identical.
//
// All methods are safe for concurrent use. An operation's response lands
// on the recorder of its invocation (its Token pins it), even if the
// installed recorder changed in between.
package hirec

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"
	"unsafe"
)

// Kind distinguishes the recorded event types.
type Kind uint8

// The event kinds.
const (
	// KInvoke marks an operation invocation (OpStart).
	KInvoke Kind = iota + 1
	// KReturn marks the matching response (OpEnd).
	KReturn
	// KStep marks a labeled protocol step the goroutine performed
	// between some invocation and its response (Step).
	KStep
)

// Event is one recorded event. Events are pure observations: they carry
// the operation or step label, never any table memory.
type Event struct {
	// Seq is the global sequence number (from 1), the recording's total
	// order. Two events are concurrent in real time only if neither's
	// operation interval separates them — Seq just fixes one
	// interleaving consistent with each goroutine's program order.
	Seq uint64
	// TS is a coarse wall-clock timestamp (UnixNano) for timelines;
	// ordering authority rests with Seq.
	TS int64
	// Kind is the event type.
	Kind Kind
	// Lane is the recorder lane (the history's process id). Two
	// goroutines may share a lane; (Lane, Index) still pairs uniquely.
	Lane int32
	// Index numbers the lane's operations from 0 (KInvoke/KReturn);
	// it is -1 for KStep events.
	Index int32
	// Name is the operation name (spec.OpInsert, ...) or step label.
	Name string
	// Arg is the operation argument (KInvoke/KReturn).
	Arg int32
	// Resp is the operation response (KReturn only).
	Resp int32
}

// Token pairs an OpEnd with its OpStart: it pins the recorder and lane
// the invocation was recorded on, so the response lands on the same lane
// with the same index even if the goroutine's stack moved or the
// installed recorder churned in between. The zero Token (an invocation
// nothing recorded) makes OpEnd a no-op.
type Token struct {
	r    *Recorder
	ln   *lane
	idx  int32
	name string
	arg  int32
}

// cacheLine separates neighbouring lanes' hot words.
const cacheLine = 64

// lane is one per-goroutine-sharded event buffer. Slot i of buf is
// written exactly once, by the goroutine that claimed i via cursor, and
// becomes visible once seal[i] holds its sequence number — so Snapshot
// may run concurrently with writers and sees only complete events.
type lane struct {
	id      int32
	cursor  atomic.Int64  // next free slot of buf
	ops     atomic.Int32  // next operation index
	dropped atomic.Uint64 // events lost to a full buf
	_       [cacheLine]byte
	buf     []Event
	seal    []atomic.Uint64 // seal[i] = buf[i].Seq once slot i is complete
}

// Recorder accumulates events into per-goroutine lanes.
type Recorder struct {
	lanes []lane
	mask  uint64
	_     [cacheLine]byte
	gseq  atomic.Uint64
}

// NewRecorder returns a recorder with capPerLane event slots per lane;
// the lane count is LaneMask's. Total capacity is bounded and
// preallocated — recording allocates nothing.
func NewRecorder(capPerLane int) *Recorder {
	if capPerLane < 1 {
		capPerLane = 1
	}
	mask := LaneMask()
	r := &Recorder{lanes: make([]lane, mask+1), mask: mask}
	for i := range r.lanes {
		r.lanes[i].id = int32(i)
		r.lanes[i].buf = make([]Event, capPerLane)
		r.lanes[i].seal = make([]atomic.Uint64, capPerLane)
	}
	return r
}

// OpEnd records the response of the operation t identifies. It is a
// no-op for the zero Token, so call sites need no enabled check.
func OpEnd(t Token, resp int) {
	if t.r != nil {
		t.r.opEnd(t, resp)
	}
}

// LaneMask sizes every observer's per-goroutine lanes (histats' shards
// too): GOMAXPROCS rounded up to a power of two, capped at 64, less one.
func LaneMask() uint64 {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n *= 2
	}
	return uint64(n - 1)
}

// Lane picks the calling goroutine's lane under mask by hashing a stack
// address (goroutines live on distinct stacks; Go has no goroutine-local
// storage). It only spreads contention: a goroutine may move and two may
// collide, harmlessly, since every cell is atomic and Tokens pair ops.
func Lane(mask uint64) uint64 {
	var probe byte
	h := uint64(uintptr(unsafe.Pointer(&probe)))
	h ^= h >> 12
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h & mask
}

func (r *Recorder) lane() *lane { return &r.lanes[Lane(r.mask)] }

// emit claims a slot on ln, stamps ev and seals it. A full lane counts
// the event as dropped instead of wrapping: overwriting old slots would
// race with concurrent snapshots and silently punch holes in the
// history, and extraction fails loudly on drops instead.
func (r *Recorder) emit(ln *lane, ev Event) {
	i := ln.cursor.Add(1) - 1
	if i >= int64(len(ln.buf)) {
		ln.dropped.Add(1)
		return
	}
	ev.Seq = r.gseq.Add(1)
	ev.TS = time.Now().UnixNano()
	ev.Lane = ln.id
	ln.buf[i] = ev
	ln.seal[i].Store(ev.Seq)
}

// OpStart records an invocation directly on r.
func (r *Recorder) OpStart(name string, arg int) Token {
	ln := r.lane()
	idx := ln.ops.Add(1) - 1
	r.emit(ln, Event{Kind: KInvoke, Index: idx, Name: name, Arg: int32(arg)})
	return Token{r: r, ln: ln, idx: idx, name: name, arg: int32(arg)}
}

// opEnd stays out of line so that OpEnd inlines to the token check.
//
//go:noinline
func (r *Recorder) opEnd(t Token, resp int) {
	r.emit(t.ln, Event{Kind: KReturn, Index: t.idx, Name: t.name, Arg: t.arg, Resp: int32(resp)})
}

// Step records a protocol step directly on r.
func (r *Recorder) Step(name string) {
	r.emit(r.lane(), Event{Kind: KStep, Index: -1, Name: name})
}

// Recording is an extracted recording: all sealed events in sequence
// order, plus the drop count. The recorded interval of every operation
// contains its actual interval (the invocation is recorded before the
// operation starts, the response after it finished), so a verdict
// computed on the recording is sound: a linearizable recorded history
// only loosens real-time constraints, never invents them.
type Recording struct {
	Events  []Event
	Dropped uint64
}

// Snapshot extracts the recording. It is safe concurrently with
// recording (in-flight unsealed slots are skipped), though a consistent
// end-of-run recording requires the recorded workload to have drained.
func (r *Recorder) Snapshot() Recording {
	var out Recording
	for li := range r.lanes {
		ln := &r.lanes[li]
		out.Dropped += ln.dropped.Load()
		n := ln.cursor.Load()
		if n > int64(len(ln.buf)) {
			n = int64(len(ln.buf))
		}
		for i := int64(0); i < n; i++ {
			if ln.seal[i].Load() != 0 {
				out.Events = append(out.Events, ln.buf[i])
			}
		}
	}
	sort.Slice(out.Events, func(i, j int) bool { return out.Events[i].Seq < out.Events[j].Seq })
	return out
}
