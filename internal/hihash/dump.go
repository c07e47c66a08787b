package hihash

import (
	"sync/atomic"
	"unsafe"
)

// Raw memory dumps — the adversarial observer's view of the native Set.
//
// Snapshot renders the table through its own accessors; an attacker who
// scrapes a core dump does not get that courtesy. RawWords and RawDump
// read the live group array directly through unsafe, exactly as a crash
// dump or a compromised process would, so the E23 experiments can assert
// history independence on the bits themselves: two tables holding the
// same key set must dump identically (bounded mode) or within the
// Proposition 6 word distance (displacing mode). The reads are plain,
// non-atomic memory reads — take dumps only when no operation is in
// flight (quiescence, or after every injected goroutine has been killed
// or parked), which is also what keeps the race detector quiet.

// RawWords copies the table's live group words straight out of memory:
// the current array first and, if an online resize is still draining,
// the old array after it. Each word packs SlotsPerGroup 16-bit slots.
func (s *Set) RawWords() []uint64 {
	st := s.st.Load()
	out := rawCopy(st.groups)
	if p := st.prev.Load(); p != nil {
		out = append(out, rawCopy(p.groups)...)
	}
	return out
}

// rawCopy snapshots a group array by reinterpreting it as raw uint64s.
// atomic.Uint64 is exactly one machine word (its extra fields are
// zero-size), so the element layout is that of a plain []uint64.
func rawCopy(groups []atomic.Uint64) []uint64 {
	if len(groups) == 0 {
		return nil
	}
	raw := unsafe.Slice((*uint64)(unsafe.Pointer(&groups[0])), len(groups))
	return append([]uint64(nil), raw...)
}

// RawDump returns the byte image of the table's group array(s), in
// machine byte order — the form two history twins are compared in.
func (s *Set) RawDump() []byte {
	words := s.RawWords()
	if len(words) == 0 {
		return nil
	}
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))
	return append([]byte(nil), raw...)
}

// Domain returns the table's key domain (keys are 1..Domain).
func (s *Set) Domain() int { return s.domain }

// CanonicalWords returns the packed group words of the canonical
// displaced layout of elems at geometry (domain, nGroups): what RawWords
// of a quiescent table holding elems must read. For states where no home
// group overflows this is also the bounded table's canonical image.
func CanonicalWords(domain, nGroups int, elems []int) []uint64 {
	layout := DisplacedGroups(Params{T: domain, G: nGroups, B: SlotsPerGroup}, elems)
	out := make([]uint64, nGroups)
	for g, keys := range layout {
		var arr [SlotsPerGroup]int
		n := copy(arr[:], keys)
		out[g] = pack(&arr, n)
	}
	return out
}
