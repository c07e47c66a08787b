package experiment

import (
	"fmt"

	"hiconc/internal/conc"
	"hiconc/internal/core"
	"hiconc/internal/shard"
	"hiconc/internal/workload"
)

// measureE20 times scale-out: sharded set/map throughput vs shard count
// against the single-Universal baseline, and the operation-combining
// ablation under total contention.
func measureE20(c *Config) error {
	fmt.Println("=== E20: scale-out — sharding and operation combining")
	const n = 8

	fmt.Println("\n    shard scaling (Zipf s=1.01, 10% reads; ns/op):")
	fmt.Printf("%10s %14s %14s %14s %14s\n", "object", "baseline", "S=1", "S=4", "S=16")
	setDomain := 16384
	setMixes := zipfSet(n, setDomain, 1.01, 0.1)
	row := []string{
		c.measurePerKey("E20", "set/baseline", conc.NewUniversal(conc.BigSetObj{Words: setDomain / 64}, n), n, setMixes),
		c.measurePerKey("E20", "set/S=1", shard.NewSet(n, setDomain, 1), n, setMixes),
		c.measurePerKey("E20", "set/S=4", shard.NewSet(n, setDomain, 4), n, setMixes),
		c.measurePerKey("E20", "set/S=16", shard.NewSet(n, setDomain, 16), n, setMixes),
	}
	fmt.Printf("%10s %14s %14s %14s %14s\n", "set", row[0], row[1], row[2], row[3])
	mapKeys := 256
	mapMixes := zipfMap(n, mapKeys, 1.01, 0.1)
	row = []string{
		c.measurePerKey("E20", "map/baseline", conc.NewUniversal(conc.MultiCounterObj{}, n), n, mapMixes),
		c.measurePerKey("E20", "map/S=1", shard.NewMap(n, mapKeys, 1), n, mapMixes),
		c.measurePerKey("E20", "map/S=4", shard.NewMap(n, mapKeys, 4), n, mapMixes),
		c.measurePerKey("E20", "map/S=16", shard.NewMap(n, mapKeys, 16), n, mapMixes),
	}
	fmt.Printf("%10s %14s %14s %14s %14s\n", "map", row[0], row[1], row[2], row[3])
	fmt.Println("    (each update copies an immutable state 1/S the size, and on")
	fmt.Println("     multicore hardware shards also update in parallel)")

	fmt.Println("\n    combining ablation (100% updates, total contention; ns/op):")
	fmt.Printf("%10s %14s %14s\n", "object", "plain", "combining")
	ctrMixes := perKeyMixes(n, func(g *workload.Gen) []core.Op { return g.CounterMix(8192, 0.0) })
	fmt.Printf("%10s %14s %14s\n", "counter",
		c.measurePerKey("E20", "counter/plain", conc.NewUniversal(conc.CounterObj{}, n), n, ctrMixes),
		c.measurePerKey("E20", "counter/combining", conc.NewCombiningUniversal(conc.CounterObj{}, n), n, ctrMixes))
	hotMixes := zipfMap(n, mapKeys, 1.5, 0.0)
	fmt.Printf("%10s %14s %14s\n", "map/S=4",
		c.measurePerKey("E20", "map-hot/S=4/plain", shard.NewMap(n, mapKeys, 4), n, hotMixes),
		c.measurePerKey("E20", "map-hot/S=4/combining", shard.NewCombiningMap(n, mapKeys, 4), n, hotMixes))
	fmt.Println("    (a process whose SC fails folds all announced commuting ops into")
	fmt.Println("     one batched SC — contention converts into useful batching)")
	return nil
}
