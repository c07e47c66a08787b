package hihash_test

import (
	"math/rand"
	"testing"

	"hiconc/internal/hihash"
)

// seqModel is the obvious sequential displaced table: insert walks the
// probe run evicting larger keys (ordered Robin Hood), delete pulls the
// smallest crossing key back into the hole and cascades. It exists to
// cross-check that DisplacedGroups — defined as ascending-order
// insertion — is what any insertion/deletion history converges to.
type seqModel struct {
	p      hihash.Params
	layout [][]int
}

func newSeqModel(p hihash.Params) *seqModel {
	return &seqModel{p: p, layout: make([][]int, p.G)}
}

func (m *seqModel) insert(c int) {
	g := hihash.GroupOf(c, m.p.G)
	for {
		keys := m.layout[g]
		for _, k := range keys {
			if k == c {
				return
			}
		}
		if len(keys) < m.p.B {
			m.layout[g] = sortedInsert(keys, c)
			return
		}
		if max := keys[len(keys)-1]; c < max {
			m.layout[g] = sortedInsert(keys[:len(keys)-1], c)
			c = max
		}
		g = (g + 1) % m.p.G
	}
}

func (m *seqModel) remove(c int) {
	g := hihash.GroupOf(c, m.p.G)
	for dist := 0; dist < m.p.G; dist++ {
		keys := m.layout[g]
		for i, k := range keys {
			if k == c {
				m.layout[g] = append(append([]int(nil), keys[:i]...), keys[i+1:]...)
				m.restore(g)
				return
			}
		}
		if len(keys) < m.p.B {
			return
		}
		g = (g + 1) % m.p.G
	}
}

// restore is the sequential backward shift: pull the smallest key whose
// probe run crossed the hole, cascade from its old group.
func (m *seqModel) restore(g int) {
	for {
		if len(m.layout[g]) >= m.p.B {
			return
		}
		best, bestAt := 0, -1
		j := (g + 1) % m.p.G
		for dist := 1; dist < m.p.G; dist++ {
			for _, k := range m.layout[j] {
				if probeCrossesTest(k, j, g, m.p.G) && (best == 0 || k < best) {
					best, bestAt = k, j
				}
			}
			if len(m.layout[j]) < m.p.B {
				break
			}
			j = (j + 1) % m.p.G
		}
		if best == 0 {
			return
		}
		keys := m.layout[bestAt]
		for i, k := range keys {
			if k == best {
				m.layout[bestAt] = append(append([]int(nil), keys[:i]...), keys[i+1:]...)
				break
			}
		}
		m.layout[g] = sortedInsert(m.layout[g], best)
		g = bestAt
	}
}

func probeCrossesTest(c, at, through, groups int) bool {
	home := hihash.GroupOf(c, groups)
	return (through-home+groups)%groups < (at-home+groups)%groups
}

func sortedInsert(keys []int, c int) []int {
	i := 0
	for i < len(keys) && keys[i] < c {
		i++
	}
	out := make([]int, 0, len(keys)+1)
	out = append(out, keys[:i]...)
	out = append(out, c)
	out = append(out, keys[i:]...)
	return out
}

func layoutEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for g := range a {
		if len(a[g]) != len(b[g]) {
			return false
		}
		for i := range a[g] {
			if a[g][i] != b[g][i] {
				return false
			}
		}
	}
	return true
}

// TestDisplacedGroupsOrderIndependent: every insertion order (and
// interleaved deletions through the sequential model) converges to the
// ascending-order layout DisplacedGroups defines. This is the sequential
// half of the canonical-layout claim, over random trials on geometries
// where home groups overflow.
func TestDisplacedGroupsOrderIndependent(t *testing.T) {
	for _, p := range []hihash.Params{
		{T: 12, G: 3, B: 2},
		{T: 20, G: 5, B: 2},
		{T: 9, G: 2, B: 4},
	} {
		for trial := 0; trial < 50; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			var target []int
			for k := 1; k <= p.T; k++ {
				if rng.Intn(2) == 0 && len(target) < p.G*p.B {
					target = append(target, k)
				}
			}
			want := hihash.DisplacedGroups(p, target)

			// Random insertion order with churn of non-target keys.
			m := newSeqModel(p)
			order := append([]int(nil), target...)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, k := range order {
				if decoy := rng.Intn(p.T) + 1; !inSet(target, decoy) && countKeys(m.layout) < p.G*p.B-1 {
					m.insert(decoy)
					m.remove(decoy)
				}
				m.insert(k)
			}
			if !layoutEqual(m.layout, want) {
				t.Fatalf("%v trial %d: order %v\n got:  %v\n want: %v", p, trial, order, m.layout, want)
			}
		}
	}
}

func countKeys(layout [][]int) int {
	n := 0
	for _, g := range layout {
		n += len(g)
	}
	return n
}

func inSet(keys []int, k int) bool {
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}

// TestDisplacedGroupsBoundedAgreement: on states where no home group
// overflows, the displaced layout coincides with the bounded one — the
// compatibility that lets CanonicalSetSnapshot serve both disciplines.
func TestDisplacedGroupsBoundedAgreement(t *testing.T) {
	p := hihash.Params{T: 24, G: 12, B: 4}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		var elems []int
		for k := 1; k <= p.T; k++ {
			if rng.Intn(3) == 0 {
				elems = append(elems, k)
			}
		}
		perHome := map[int]int{}
		over := false
		for _, k := range elems {
			perHome[hihash.GroupOf(k, p.G)]++
			if perHome[hihash.GroupOf(k, p.G)] > p.B {
				over = true
			}
		}
		if over {
			continue
		}
		bounded := hihash.CanonicalGroups(p, elems)
		displaced := hihash.DisplacedGroups(p, elems)
		for g := range bounded {
			if bounded[g] != hihash.EncodeGroup(displaced[g]) {
				t.Fatalf("trial %d group %d: bounded %s, displaced %v", trial, g, bounded[g], displaced[g])
			}
		}
	}
}

// TestDisplaceSetSpill: with a single home group receiving more than
// SlotsPerGroup keys, the displacing table spills to the neighbour
// instead of answering RspFull, and the memory is the canonical
// displaced layout.
func TestDisplaceSetSpill(t *testing.T) {
	s := hihash.NewDisplaceSet(10, 2)
	var keys []int
	for k := 1; k <= 6; k++ {
		if rsp := s.Insert(k); rsp != 0 {
			t.Fatalf("Insert(%d) = %d, want 0 (no RspFull in the displacing table)", k, rsp)
		}
		keys = append(keys, k)
	}
	for _, k := range keys {
		if !s.Contains(k) {
			t.Fatalf("missing %d after spill inserts", k)
		}
	}
	if got, want := s.Snapshot(), hihash.CanonicalSetSnapshot(10, s.NumGroups(), keys); got != want {
		t.Fatalf("snapshot after spills:\n got:  %s\n want: %s", got, want)
	}
}

// TestDisplaceSetRemoveRestores: deleting a key pulls displaced keys
// back (tombstone-free backward shift), leaving the canonical layout of
// the remaining set.
func TestDisplaceSetRemoveRestores(t *testing.T) {
	s := hihash.NewDisplaceSet(12, 2)
	for k := 1; k <= 7; k++ {
		s.Insert(k)
	}
	for _, k := range []int{3, 6, 1} {
		s.Remove(k)
		if s.Contains(k) {
			t.Fatalf("contains %d after remove", k)
		}
		if got, want := s.Snapshot(), hihash.CanonicalSetSnapshot(12, s.NumGroups(), s.Elements()); got != want {
			t.Fatalf("snapshot after Remove(%d):\n got:  %s\n want: %s", k, got, want)
		}
	}
}

// TestDisplaceSetCanonicalAcrossHistories: random histories reaching the
// same key set leave byte-identical memories equal to the canonical
// displaced snapshot, at load factors the bounded table cannot reach.
func TestDisplaceSetCanonicalAcrossHistories(t *testing.T) {
	const domain, nGroups = 64, 10 // capacity 40, load pushed past 1 per home group
	target := []int{3, 9, 10, 11, 17, 25, 31, 38, 40, 44, 52, 57, 60, 64}
	run := func(seed int64) string {
		s := hihash.NewDisplaceSet(domain, nGroups)
		rng := rand.New(rand.NewSource(seed))
		keys := append([]int(nil), target...)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, k := range keys {
			decoy := rng.Intn(domain) + 1
			for inSet(target, decoy) {
				decoy = decoy%domain + 1
			}
			s.Insert(decoy)
			s.Remove(decoy)
			if rsp := s.Insert(k); rsp != 0 {
				t.Fatalf("Insert(%d) = %d", k, rsp)
			}
		}
		for k := 1; k <= domain; k++ {
			if !inSet(target, k) {
				s.Remove(k)
			}
		}
		return s.Snapshot()
	}
	a, b := run(1), run(2)
	if a != b {
		t.Fatalf("same key set, different memories:\n a: %s\n b: %s", a, b)
	}
	s := hihash.NewDisplaceSet(domain, nGroups)
	for _, k := range target {
		s.Insert(k)
	}
	if want := hihash.CanonicalSetSnapshot(domain, s.NumGroups(), target); a != want && s.NumGroups() == nGroups {
		t.Fatalf("memory not canonical:\n got:  %s\n want: %s", a, want)
	}
}

// TestDisplaceSetGrow: the table grows online — explicitly and under
// insert pressure — and the post-resize memory is the canonical layout
// of the doubled geometry with every key retained.
func TestDisplaceSetGrow(t *testing.T) {
	s := hihash.NewDisplaceSet(200, 4) // capacity 16
	var keys []int
	for k := 1; k <= 60; k++ {
		if rsp := s.Insert(k); rsp != 0 {
			t.Fatalf("Insert(%d) = %d", k, rsp)
		}
		keys = append(keys, k)
	}
	if s.NumGroups() <= 4 {
		t.Fatalf("table did not grow under pressure: %d groups for %d keys", s.NumGroups(), len(keys))
	}
	for _, k := range keys {
		if !s.Contains(k) {
			t.Fatalf("missing %d after growth", k)
		}
	}
	if got, want := s.Snapshot(), hihash.CanonicalSetSnapshot(200, s.NumGroups(), keys); got != want {
		t.Fatalf("snapshot after growth:\n got:  %s\n want: %s", got, want)
	}
	before := s.NumGroups()
	s.Grow()
	if s.NumGroups() != 2*before {
		t.Fatalf("explicit Grow: %d groups, want %d", s.NumGroups(), 2*before)
	}
	if got, want := s.Snapshot(), hihash.CanonicalSetSnapshot(200, s.NumGroups(), keys); got != want {
		t.Fatalf("snapshot after explicit Grow:\n got:  %s\n want: %s", got, want)
	}
}

// TestDisplaceSetHomeOverload: a home group loaded past its slot
// capacity (load factor > 1 for that group) keeps absorbing inserts with
// zero RspFull — the acceptance condition of E22.
func TestDisplaceSetHomeOverload(t *testing.T) {
	const domain = 400
	s := hihash.NewDisplaceSet(domain, 16)
	mates := hihash.KeysHomingAt(domain, 16, hihash.GroupOf(1, 16), 3*hihash.SlotsPerGroup)
	for _, k := range mates {
		if rsp := s.Insert(k); rsp != 0 {
			t.Fatalf("Insert(%d) = %d, want 0", k, rsp)
		}
	}
	for _, k := range mates {
		if !s.Contains(k) {
			t.Fatalf("missing %d with overloaded home group", k)
		}
	}
	if got, want := s.Snapshot(), hihash.CanonicalSetSnapshot(domain, s.NumGroups(), mates); got != want {
		t.Fatalf("snapshot with overloaded home group:\n got:  %s\n want: %s", got, want)
	}
}
