package obj_test

import (
	"math/rand"
	"testing"

	"hiconc/internal/hihash"
	"hiconc/internal/obj"
	"hiconc/internal/shard"
)

// This file is the API-layer history-independence property test: equal
// abstract states reached by different operation orders must yield
// byte-identical Snapshot() strings, equal to the pure canonical-snapshot
// functions. It is direct SQHI evidence at the public surface,
// complementing the machine checks that internal/hicheck runs against the
// simulated twins.

// targetSet draws a random subset of {1..domain}.
func targetSet(rng *rand.Rand, domain int) []int {
	var out []int
	for k := 1; k <= domain; k++ {
		if rng.Intn(3) == 0 {
			out = append(out, k)
		}
	}
	return out
}

// shuffled returns a copy of keys in random order.
func shuffled(rng *rand.Rand, keys []int) []int {
	out := append([]int(nil), keys...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func inSet(keys []int, k int) bool {
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}

// TestShardedSetSnapshotCanonicalProperty: for random target sets, two
// random histories (different insertion orders, different churn of
// non-target keys, different invoking processes) must leave the sharded
// set's composite memory byte-identical and equal to
// shard.CanonicalSetSnapshot.
func TestShardedSetSnapshotCanonicalProperty(t *testing.T) {
	const n, domain, nShards, trials = 4, 48, 4, 20
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		target := targetSet(rng, domain)
		history := func(seed int64) string {
			hrng := rand.New(rand.NewSource(seed))
			s := obj.NewShardedSet(n, domain, nShards)
			handles := make([]*obj.ShardedSetHandle, n)
			for pid := range handles {
				handles[pid] = s.Handle(pid)
			}
			for _, k := range shuffled(hrng, target) {
				h := handles[hrng.Intn(n)]
				// Churn a non-target key around the real insert.
				decoy := hrng.Intn(domain) + 1
				for inSet(target, decoy) {
					decoy = decoy%domain + 1
				}
				h.Insert(decoy)
				h.Insert(k)
				handles[hrng.Intn(n)].Remove(decoy)
			}
			return s.Snapshot()
		}
		a, b := history(int64(1000+trial)), history(int64(2000+trial))
		if a != b {
			t.Fatalf("trial %d: same state, different composite memories:\n a: %s\n b: %s", trial, a, b)
		}
		if want := shard.CanonicalSetSnapshot(n, domain, nShards, target); a != want {
			t.Fatalf("trial %d: memory not canonical:\n got:  %s\n want: %s", trial, a, want)
		}
	}
}

// TestShardedMapSnapshotCanonicalProperty: random target counts reached
// through different inc/dec orders must leave identical composite
// memories equal to shard.CanonicalMapSnapshot.
func TestShardedMapSnapshotCanonicalProperty(t *testing.T) {
	const n, keys, nShards, trials = 4, 24, 4, 20
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		counts := map[int]int{}
		for k := 1; k <= keys; k++ {
			if rng.Intn(3) == 0 {
				counts[k] = rng.Intn(4) + 1
			}
		}
		history := func(seed int64) string {
			hrng := rand.New(rand.NewSource(seed))
			m := obj.NewShardedMap(n, keys, nShards)
			handles := make([]*obj.ShardedMapHandle, n)
			for pid := range handles {
				handles[pid] = m.Handle(pid)
			}
			// Emit the needed increments in random order, with extra
			// inc/dec churn that cancels out.
			var steps []func()
			for k, v := range counts {
				k := k
				for i := 0; i < v; i++ {
					steps = append(steps, func() { handles[hrng.Intn(n)].Inc(k) })
				}
			}
			for i := 0; i < keys/2; i++ {
				k := hrng.Intn(keys) + 1
				steps = append(steps, func() { handles[hrng.Intn(n)].Inc(k) })
				steps = append(steps, func() { handles[hrng.Intn(n)].Dec(k) })
			}
			// Churn pairs must both run; shuffle whole steps only.
			hrng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
			for _, st := range steps {
				st()
			}
			return m.Snapshot()
		}
		a, b := history(int64(3000+trial)), history(int64(4000+trial))
		if a != b {
			t.Fatalf("trial %d: same counts, different composite memories:\n a: %s\n b: %s", trial, a, b)
		}
		if want := shard.CanonicalMapSnapshot(n, keys, nShards, counts); a != want {
			t.Fatalf("trial %d: memory not canonical:\n got:  %s\n want: %s", trial, a, want)
		}
	}
}

// TestHashSetSnapshotCanonicalProperty: the same property for the direct
// HICHT table, whose snapshot must additionally match
// hihash.CanonicalSetSnapshot for the realized key set.
func TestHashSetSnapshotCanonicalProperty(t *testing.T) {
	const domain, trials = 48, 20
	nGroups := hihash.DefaultGroups(domain)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		target := targetSet(rng, domain)
		history := func(seed int64) string {
			hrng := rand.New(rand.NewSource(seed))
			s := obj.NewHashSet(domain)
			for _, k := range shuffled(hrng, target) {
				decoy := hrng.Intn(domain) + 1
				for inSet(target, decoy) {
					decoy = decoy%domain + 1
				}
				s.Insert(decoy)
				s.Insert(k)
				s.Remove(decoy)
			}
			if g := s.NumGroups(); g != nGroups {
				t.Fatalf("trial %d: table grew to %d groups under a balanced set", trial, g)
			}
			return s.Snapshot()
		}
		a, b := history(int64(5000+trial)), history(int64(6000+trial))
		if a != b {
			t.Fatalf("trial %d: same state, different memories:\n a: %s\n b: %s", trial, a, b)
		}
		if want := hihash.CanonicalSetSnapshot(domain, nGroups, target); a != want {
			t.Fatalf("trial %d: memory not canonical:\n got:  %s\n want: %s", trial, a, want)
		}
	}
}
