// Package broken is the escape gate's deliberately-broken fixture: the
// probe record's slice field aliases its own backing array — the exact
// shape that silently moved PR 9's lookup record to the heap — so the
// gate must report a moved-to-heap finding inside lookupRecord.
package broken

type record struct {
	buf   [32]uint64
	lanes []uint64
}

func (r *record) push(v uint64) {
	r.lanes = append(r.lanes, v)
}

func lookupRecord(key uint64) int {
	r := record{}
	r.lanes = r.buf[:0]
	for i := range r.buf {
		if r.buf[i] == key {
			r.push(r.buf[i])
		}
	}
	return len(r.lanes)
}

// cleanLookup keeps the record escape-free: the gate must stay silent
// about functions that are not declared hot, and about clean ones.
func cleanLookup(key uint64) int {
	var buf [32]uint64
	n := 0
	for i := range buf {
		if buf[i] == key {
			n++
		}
	}
	return n
}

// box and pair have generic receivers: the gate must name their methods
// box.get, box.grow and pair.key, as it names methods of plain types.
type box[T any] struct{ v T }

func (b *box[T]) get() T { return b.v }

// grow allocates a fresh box on every call.
func (b *box[T]) grow() *box[T] { return &box[T]{v: b.v} }

type pair[K comparable, V any] struct {
	k K
	v V
}

func (p *pair[K, V]) key() K { return p.k }

// useGenerics instantiates the generic methods so the compiler emits
// their escape diagnostics.
func useGenerics() (int, *box[int], string) {
	b := &box[int]{v: 1}
	p := &pair[string, int]{k: "k"}
	return b.get(), b.grow(), p.key()
}
