// Package conc is the native port of the paper's constructions to real Go
// concurrency: goroutines synchronizing through sync/atomic instead of
// simulated processes. It provides
//
//   - Cell: the R-LLSC object of Section 6.1, implemented from pointer CAS
//     in the style of Algorithm 6;
//   - Universal: Algorithm 5 over Cells, with the Leaky ablation;
//   - the SWSR register algorithms of Section 4 over atomic int32 arrays;
//   - baselines (mutex-guarded object, lock-free CAS loop without helping)
//     used by the benchmark suite.
//
// Substitution note (see DESIGN.md): Go has no wide value CAS, so a Cell
// keeps each value in an immutable node behind atomic.Pointer and the
// context in an atomic word of that node. LL, VL and RL work on the
// current node's context in place; only SC and Store install a fresh node.
// A node is never reinstalled, so pointer CAS has no ABA, and only the
// owner of a context bit ever writes it. The memory representation of the
// abstract construction is the current node's (val, context) pair,
// exposed via Snapshot for history-independence checks at quiescent
// barriers.
package conc

import (
	"fmt"
	"sync/atomic"
)

// node is one version of a cell: an immutable value and the context of
// processes linked to it.
type node[T any] struct {
	val T
	ctx atomic.Uint64
}

// Cell is a context-aware releasable LL/SC cell holding a T: the native
// counterpart of Algorithm 6. All methods are safe for concurrent use; pid
// identifies the calling process (0..63) and must be unique per concurrent
// caller. A process passes only its own pid: the in-place context relies
// on no process writing another's bit.
type Cell[T any] struct {
	p atomic.Pointer[node[T]]
}

// NewCell returns a cell holding val with an empty context.
func NewCell[T any](val T) *Cell[T] {
	c := &Cell[T]{}
	c.p.Store(&node[T]{val: val})
	return c
}

func pidBit(pid int) uint64 {
	if pid < 0 || pid >= 64 {
		panic(fmt.Sprintf("conc: pid %d out of range 0..63", pid))
	}
	return uint64(1) << uint(pid)
}

// Load returns the value without touching the context (Algorithm 6 line 21).
func (c *Cell[T]) Load() T { return c.p.Load().val }

// Snapshot returns the logical state (val, context) of the cell; it is the
// cell's memory representation for history-independence checks. Bits left
// on retired nodes are not part of it.
func (c *Cell[T]) Snapshot() (T, uint64) {
	n := c.p.Load()
	return n.val, n.ctx.Load()
}

// Store sets the value and resets the context (Algorithm 6 line 23).
func (c *Cell[T]) Store(val T) { c.p.Store(&node[T]{val: val}) }

// LL load-links: it adds pid to the context and returns the value
// (Algorithm 6 lines 1-6). Lock-free.
func (c *Cell[T]) LL(pid int) T {
	v, _ := c.LLWithAbort(pid, nil)
	return v
}

// LLWithAbort is LL with an escape hatch: between a failed attempt and the
// next, abort is polled; if it reports true the LL is abandoned with no
// context change and ok = false. This realizes the ∥ interleavings of
// Algorithm 5's lines 6, 18 and 25.
//
// An attempt sets pid's bit in the loaded node's context, then re-reads the
// cell pointer: finding the same node proves the node was current when the
// bit was set, which is the LL's linearization point. Otherwise the node was
// retired meanwhile and the bit on it is outside the representation.
func (c *Cell[T]) LLWithAbort(pid int, abort func() bool) (val T, ok bool) {
	bit := pidBit(pid)
	for {
		n := c.p.Load()
		if n.ctx.Load()&bit == 0 {
			n.ctx.Or(bit)
		}
		if c.p.Load() == n {
			return n.val, true
		}
		if abort != nil && abort() {
			var zero T
			return zero, false
		}
	}
}

// VL reports whether pid is linked (Algorithm 6 lines 12-13). Only pid
// writes its bit, so the bit read from the loaded node is the bit it had
// while that node was current.
func (c *Cell[T]) VL(pid int) bool {
	return c.p.Load().ctx.Load()&pidBit(pid) != 0
}

// SC store-conditionally writes val (Algorithm 6 lines 7-11): it succeeds
// iff pid is still linked, installing a fresh node with an empty context.
// Other processes' LL and RL leave the node in place, so a failed CAS
// means an SC or Store installed a successor, which pid is not linked to.
func (c *Cell[T]) SC(pid int, val T) bool {
	n := c.p.Load()
	return n.ctx.Load()&pidBit(pid) != 0 && c.p.CompareAndSwap(n, &node[T]{val: val})
}

// RL releases pid's link (Algorithm 6 lines 14-20) by clearing its bit in
// place. If the node is retired before the clear, pid was not linked to
// its successor, so the release has nothing left to do.
func (c *Cell[T]) RL(pid int) {
	bit := pidBit(pid)
	if n := c.p.Load(); n.ctx.Load()&bit != 0 {
		n.ctx.And(^bit)
	}
}
