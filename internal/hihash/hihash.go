// Package hihash implements the HICHT subsystem: a lock-free,
// history-independent concurrent hash table with open addressing, in the
// spirit of "History-Independent Concurrent Hash Tables" (Attiya, Bender,
// Farach-Colton, Oshman, Schiller; arXiv:2503.21016), carried out in the
// SQHI framework of the source PODC 2024 paper.
//
// The table is an array of G bucket groups of B slots each; a key k homes
// at group GroupOf(k, G) and probes the cyclic run GroupOf(k, G),
// GroupOf(k, G)+1, ... The design invariant is a canonical layout: the
// placement of every key is determined solely by the current key set,
// never by the insertion or deletion order. Two disciplines coexist:
//
//   - Bounded (the PR-2 stepping stone, retained): a key lives only in
//     its home group, in ascending-key slot order. A whole group is one
//     CAS word, so every relocation an insert or a tombstone-free delete
//     requires is folded into a single atomic compare-and-swap, and the
//     table is perfectly history independent (Definition 5) — every
//     reachable configuration holds a canonical memory. The cost is
//     fixed capacity: an insert into a full home group returns RspFull.
//
//   - Displacing (unbounded): keys spill into neighbouring groups in
//     ordered Robin Hood priority — smaller keys claim earlier groups of
//     their probe run — so a home group can carry load factor above 1,
//     and the group array grows online when probe runs get long. The
//     canonical layout (DisplacedGroups) is the one ascending-order
//     insertion produces, which is independent of the actual history.
//     Cross-group relocation spans two CAS words, so it cannot be atomic:
//     relocations plant per-slot marks, deletions plant a restore flag in
//     the hole they open, and every operation helps complete the
//     relocations it encounters. Perfect HI is provably out of reach for
//     this variant — adjacent canonical layouts differ in two or more
//     group words, which Proposition 6 forbids for single-word steps —
//     and the checker refutes it with a concrete witness; the variant is
//     state-quiescent HI (Definition 7), the class the HICHT paper itself
//     proves, machine-checked together with linearizability.
//
// The package ships the subsystem in both of the repository's worlds:
//
//   - simulated twins (NewSimHarness, NewDisplaceHarness) driven through
//     internal/sim and internal/harness, machine-checked by
//     internal/hicheck: the bounded twin for Perfect+StateQuiescent HI,
//     the displacing twin for StateQuiescent HI + linearizability
//     (including schedules that cross an online resize), plus ablations
//     the checker must refute (VariantAppend and DisplaceNoShift);
//   - a native port (Set) over sync/atomic group words, exposed through
//     internal/obj as HashSet.
package hihash

import (
	"fmt"
	"sort"
	"strings"
)

// RspFull is the response of an insert that found the key's group already
// holding its maximum number of keys. It is distinct from the acknowledge
// response 0 and the membership responses 0/1.
const RspFull = 2

// GroupOf returns the group (0..groups-1) that key probes, using a fixed
// splitmix64-style mixer so contiguous key ranges spread evenly. It is
// the hash function h of the canonical-layout invariant, shared by the
// specification, the simulated twin and the native port, and delegated to
// by shard.ShardOf so shard routing uses the identical mixer.
func GroupOf(key, groups int) int {
	z := uint64(key) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(groups))
}

// KeysHomingAt returns the n smallest keys of {1..domain} whose home is
// group home of groups, in ascending order — the keys that overload one
// group, the raw material of every displacement scenario. It panics if
// fewer than n keys home there: the geometry cannot host the scenario.
func KeysHomingAt(domain, groups, home, n int) []int {
	ks := make([]int, 0, n)
	for k := 1; k <= domain && len(ks) < n; k++ {
		if GroupOf(k, groups) == home {
			ks = append(ks, k)
		}
	}
	if len(ks) < n {
		panic(fmt.Sprintf("hihash: only %d keys of 1..%d home at group %d of %d, need %d", len(ks), domain, home, groups, n))
	}
	return ks
}

// Params fixes one table geometry: keys are {1..T}, hashed into G groups
// of B slots each. The capacity of the table is G*B.
type Params struct {
	// T is the key domain size; keys are 1..T.
	T int
	// G is the number of bucket groups.
	G int
	// B is the number of slots per group (the group capacity).
	B int
}

// Validate panics if the geometry is malformed.
func (p Params) Validate() {
	if p.T < 1 {
		panic(fmt.Sprintf("hihash: invalid domain T=%d", p.T))
	}
	if p.G < 1 {
		panic(fmt.Sprintf("hihash: invalid group count G=%d", p.G))
	}
	if p.B < 1 {
		panic(fmt.Sprintf("hihash: invalid group capacity B=%d", p.B))
	}
}

// String renders the geometry for harness and implementation names.
func (p Params) String() string { return fmt.Sprintf("t=%d,g=%d,b=%d", p.T, p.G, p.B) }

// EncodeGroup renders a group's key set in canonical priority order:
// ascending keys inside braces, e.g. "{1,3}" ("{}" when empty). It is the
// slot layout of the simulated twin and the reference form for snapshot
// checks of the native port.
func EncodeGroup(keys []int) string {
	sorted := append([]int(nil), keys...)
	sort.Ints(sorted)
	parts := make([]string, len(sorted))
	for i, k := range sorted {
		parts[i] = fmt.Sprint(k)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// DecodeGroup parses an EncodeGroup rendering back into its sorted keys.
func DecodeGroup(s string) []int {
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		panic("hihash: bad group encoding " + s)
	}
	body := s[1 : len(s)-1]
	if body == "" {
		return nil
	}
	parts := strings.Split(body, ",")
	keys := make([]int, len(parts))
	for i, p := range parts {
		if _, err := fmt.Sscan(p, &keys[i]); err != nil {
			panic("hihash: bad group encoding " + s)
		}
	}
	return keys
}

// groupsOf partitions elems (keys of {1..T}) into per-group sorted key
// lists under the geometry p.
func groupsOf(p Params, elems []int) [][]int {
	out := make([][]int, p.G)
	sorted := append([]int(nil), elems...)
	sort.Ints(sorted)
	for _, k := range sorted {
		if k < 1 || k > p.T {
			panic(fmt.Sprintf("hihash: element %d out of range 1..%d", k, p.T))
		}
		g := GroupOf(k, p.G)
		out[g] = append(out[g], k)
	}
	return out
}

// CanonicalGroups returns the canonical per-group encodings of the
// abstract state elems under geometry p for the bounded (non-displacing)
// discipline — the unique memory representation the bounded table holds
// whenever its key set is elems. It panics if elems does not fit the
// geometry (some home group over capacity), since such a state is
// unreachable for the bounded table.
func CanonicalGroups(p Params, elems []int) []string {
	p.Validate()
	groups := groupsOf(p, elems)
	out := make([]string, p.G)
	for g, keys := range groups {
		if len(keys) > p.B {
			panic(fmt.Sprintf("hihash: state %v overfills group %d (cap %d)", elems, g, p.B))
		}
		out[g] = EncodeGroup(keys)
	}
	return out
}

// DisplacedGroups returns the canonical displaced layout of the abstract
// state elems under geometry p: the per-group sorted key lists that
// ascending-order insertion with ordered Robin Hood displacement
// produces. This is the unique memory representation of the displacing
// table (BuildCanon machine-checks order independence); when no home
// group holds more than B keys it coincides with the bounded layout of
// CanonicalGroups. It panics if elems exceeds the total capacity G*B.
func DisplacedGroups(p Params, elems []int) [][]int {
	p.Validate()
	sorted := append([]int(nil), elems...)
	sort.Ints(sorted)
	if len(sorted) > p.G*p.B {
		panic(fmt.Sprintf("hihash: state %v exceeds capacity %d", elems, p.G*p.B))
	}
	layout := make([][]int, p.G)
	for _, k := range sorted {
		if k < 1 || k > p.T {
			panic(fmt.Sprintf("hihash: element %d out of range 1..%d", k, p.T))
		}
		seqPlace(layout, p, k)
	}
	return layout
}

// seqPlace inserts key c into the sequential displaced layout: walk c's
// probe run; take the first free slot; at a full group, a key smaller
// than the group's maximum evicts it (the ordered Robin Hood priority)
// and the evicted key continues the walk from the next group.
func seqPlace(layout [][]int, p Params, c int) {
	g := GroupOf(c, p.G)
	for hops := 0; hops <= p.G*(p.B+1); hops++ {
		keys := layout[g]
		if idx := indexOf(keys, c); idx >= 0 {
			return
		}
		if len(keys) < p.B {
			layout[g] = insertSorted(keys, c)
			return
		}
		if m := keys[len(keys)-1]; c < m {
			layout[g] = insertSorted(keys[:len(keys)-1], c)
			c = m
		}
		g = (g + 1) % p.G
	}
	panic("hihash: displaced placement did not terminate")
}

// probeCrosses reports whether key c, residing at group at, passed
// through group through on its probe run — i.e. through lies strictly
// before at in cyclic order starting at c's home group. It is the
// condition deciding which displaced keys a backward shift may pull into
// a freed slot.
func probeCrosses(c, at, through, groups int) bool {
	home := GroupOf(c, groups)
	return (through-home+groups)%groups < (at-home+groups)%groups
}

// DisplacedSnapshot renders the canonical displaced layout of elems for a
// (domain, nGroups) table in the Snapshot format of the native Set.
func DisplacedSnapshot(domain, nGroups int, elems []int) string {
	layout := DisplacedGroups(Params{T: domain, G: nGroups, B: SlotsPerGroup}, elems)
	parts := make([]string, nGroups)
	for g, keys := range layout {
		parts[g] = fmt.Sprintf("g%d=%s", g, EncodeGroup(keys))
	}
	return strings.Join(parts, " | ")
}
