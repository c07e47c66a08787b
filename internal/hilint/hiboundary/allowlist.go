package hiboundary

// The declared boundary. Editing these lists is a reviewed act: adding
// a function to ReadPathFuncs subjects it to the write-free contract,
// adding a callee to the allowlists widens what the read path may touch,
// and adding a file to UnsafeFiles admits a new raw-memory reader.

// ReadPathFuncs is the E26 lookup surface of internal/hihash: every
// function here must stay write-free and call only allowlisted callees.
// Keyed as "Recv.Name" for methods, bare "Name" for functions.
// containsSlow is deliberately absent — it is the helping fallback that
// may complete pending protocol transitions (DESIGN.md, "The read
// path").
var ReadPathFuncs = map[string]bool{
	// The API lookups.
	"Set.Contains":         true,
	"Set.displaceContains": true,
	// The probeScan (fast, fixed-buffer) half of the scan split.
	"fastScan":    true,
	"fastMatches": true,
	// The runScan (slice-collecting) half, shared with the update paths.
	"scanRun":       true,
	"rescanMatches": true,
	// Whole-table read-only sweeps.
	"Set.findKey": true,
}

// AllowedCallees are the package-level functions, conversions and
// builtins a read-path function may call: the pure word/SWAR
// classifiers, layout arithmetic, the metrics layer (machine-checked to
// stay outside the HI boundary), and the language's own furniture.
var AllowedCallees = map[string]bool{
	// SWAR classifiers (pure ALU, swar.go).
	"swarBroadcast":  true,
	"swarZeroLanes":  true,
	"swarKeyLanes":   true,
	"swarFind":       true,
	"swarEmptyLanes": true,
	"swarFlagLanes":  true,
	"swarMarkLanes":  true,
	"swarBusyLanes":  true,
	// Word helpers and layout arithmetic (pure).
	"wordClean": true,
	"wordFind":  true,
	"slotAt":    true,
	"GroupOf":   true,
	// Metrics: outside the HI boundary by machine check (E24).
	"histats.Inc":     true,
	"histats.Observe": true,
	// Stdlib bit tricks.
	"bits.OnesCount64":     true,
	"bits.TrailingZeros64": true,
	// Builtins and conversions.
	"len": true, "cap": true, "append": true, "copy": true,
	"int": true, "int32": true, "int64": true,
	"uint64": true, "uint32": true, "uintptr": true,
}

// AllowedMethods are the methods a read-path function may invoke on any
// receiver. Load is the only atomic verb of a read; checkKey panics on
// malformed input before any shared state is touched.
var AllowedMethods = map[string]bool{
	"Load":     true,
	"checkKey": true,
	// The declared exit from the fast path: after the retry budget the
	// reader hands off to the helping fallback, whose writes are the
	// update paths' transitions (and which is deliberately outside
	// ReadPathFuncs).
	"containsSlow": true,
}

// UnsafeFiles are the files permitted to import "unsafe", matched as
// path suffixes. The inventory, with why each needs raw memory:
//
//	internal/hihash/dump.go    — RawWords/RawDump read the live group
//	                             arrays exactly as a core dump would;
//	                             the E23 twin checks compare these bits.
//	internal/hirec/hirec.go    — every observer's lane pick (Lane)
//	                             hashes a stack address.
var UnsafeFiles = []string{
	"internal/hihash/dump.go",
	"internal/hirec/hirec.go",
}
