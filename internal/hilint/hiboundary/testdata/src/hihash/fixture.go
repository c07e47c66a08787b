// Package hihash is a bug-shaped fixture for the hiboundary analyzer:
// declared read-path functions are held to the write-free contract and
// the callee allowlist; everything else is the update paths' business.
package hihash

import "sync/atomic"

type tableState struct {
	groups []atomic.Uint64
}

type Set struct {
	st atomic.Pointer[tableState]
}

func swarBroadcast(key uint64) uint64 { return key * 0x0001000100010001 }

func wordFind(w, pat uint64) int { return int(w ^ pat) }

func GroupOf(key uint64, n int) int { return int(key) % n }

func helperOffPath() {}

func (s *Set) checkKey(key uint64) {}

func (s *Set) containsSlow(key uint64) bool { return false }

func (s *Set) mutate(key uint64) {}

// A clean lookup: loads, pure classifiers, the declared fallback.
func (s *Set) Contains(key uint64) bool {
	s.checkKey(key)
	st := s.st.Load()
	w := st.groups[GroupOf(key, len(st.groups))].Load()
	if wordFind(w, swarBroadcast(key)) >= 0 {
		return true
	}
	return s.containsSlow(key)
}

// A reader that quietly grew writes and an off-allowlist call.
func (s *Set) displaceContains(key uint64) bool {
	st := s.st.Load()
	st.groups[0].Store(key)                    // want `writes table state`
	helperOffPath()                            // want `not on the read-path allowlist`
	return st.groups[0].CompareAndSwap(key, 0) // want `writes table state`
}

// A read-path function calling a non-allowlisted method.
func (s *Set) findKey(key uint64) bool {
	s.mutate(key) // want `calls method mutate`
	return false
}

// Not a declared read-path function: its writes are covered by the
// update paths' checks, not this analyzer.
func (s *Set) add(key uint64) {
	st := s.st.Load()
	st.groups[0].Store(key)
}
