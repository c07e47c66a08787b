package hihash

// The scalar reference classifiers, kept alongside the SWAR ones for the
// differential tests: FuzzSWARMatch and the exhaustive pattern tests pin
// every SWAR classifier bit-for-bit against these loops. Nothing on the
// hot path calls into this file.

// scalarFind is the reference slot matcher: the slot index of key in w
// (marked or not), or -1, by extract-and-compare.
func scalarFind(w uint64, key int) int {
	for i := 0; i < SlotsPerGroup; i++ {
		sl := slotAt(w, i)
		if sl != 0 && sl != flagSlot && int(sl&slotKey) == key {
			return i
		}
	}
	return -1
}

// scalarZeros is the reference empty-slot count.
func scalarZeros(w uint64) int {
	n := 0
	for i := 0; i < SlotsPerGroup; i++ {
		if slotAt(w, i) == 0 {
			n++
		}
	}
	return n
}

// scalarFlags is the reference restore-flag count.
func scalarFlags(w uint64) int {
	n := 0
	for i := 0; i < SlotsPerGroup; i++ {
		if slotAt(w, i) == flagSlot {
			n++
		}
	}
	return n
}

// scalarMarks is the reference marked-key count.
func scalarMarks(w uint64) int {
	n := 0
	for i := 0; i < SlotsPerGroup; i++ {
		if sl := slotAt(w, i); sl != 0 && sl != flagSlot && sl&slotMark != 0 {
			n++
		}
	}
	return n
}

// scalarAnyMarked is the reference marked-key pick: the lowest-slot
// marked key of w, or 0.
func scalarAnyMarked(w uint64) int {
	for i := 0; i < SlotsPerGroup; i++ {
		sl := slotAt(w, i)
		if sl != 0 && sl != flagSlot && sl&slotMark != 0 {
			return int(sl & slotKey)
		}
	}
	return 0
}

// scalarClean is the reference settled-group predicate: no marks, no
// flags, at least one empty slot, not drained.
func scalarClean(w uint64) bool {
	return w != gone && scalarZeros(w) > 0 && scalarFlags(w) == 0 && scalarMarks(w) == 0
}
