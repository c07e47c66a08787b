// Package histats is the observability layer of the native HICHT stack:
// per-goroutine-sharded atomic counters and log-bucketed latency
// histograms for the protocol events of internal/hihash, internal/shard,
// internal/conc and internal/obj.
//
// The whole layer hangs off one global atomic pointer (an
// internal/hook point, the same idiom as hihash.SetStepHook and the
// internal/hirec flight recorder): every instrumented site calls Inc,
// Add or Observe, whose disabled path is a single atomic load and a
// predicted branch (no recorder allocated, nothing written). Enabling
// installs a Recorder; events then land in per-goroutine shards of
// padded atomic cells, merged on demand by Snapshot. Experiment E24
// measures both paths and gates the disabled-path overhead.
//
// Metrics are history by definition — a probe-length histogram is a
// digest of the execution — so this package must live outside the
// history-independence boundary: it never touches the objects' shared
// representation, and the objects never read it. The E23/E24 twin
// checks machine-verify the separation by asserting that RawWords dumps
// of instrumented tables are bit-identical to uninstrumented runs (see
// DESIGN.md, "Observability outside the HI boundary").
//
// All functions are safe for concurrent use; Enable and Disable may
// race with instrumented traffic (sites that loaded the old pointer
// finish against the old recorder).
package histats

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"hiconc/internal/hook"
)

// Counter identifies one monotonically increasing event count.
type Counter uint8

// The counters, grouped by layer.
const (
	// Protocol steppoints of the native table (hihash): each mirrors one
	// hihash.Steppoint and is incremented by the table's stepAt, so the
	// count is exactly "how many times that protocol CAS landed".
	CtrBoundedUpdate Counter = iota
	CtrMarkSet
	CtrDestWritten
	CtrEvictSwap
	CtrSourceCleared
	CtrFlagPlaced
	CtrFlagCleared
	CtrGrowPublished
	CtrDrainCopied
	CtrDrainDropped
	CtrGonePlaced

	// hihash retry behaviour. All four are cold-path sites: their
	// disabled nil-check only executes when the contention they count
	// actually happened, so a quiet table pays nothing for them.
	CtrHashCASFail  // a CAS on a group word lost its race (one retry loop turn)
	CtrLookupRetry  // a validated double collect had to restart
	CtrHelpRelocate // a relocation completed on behalf of another operation
	CtrLookupHelp   // a lookup fell back to helping: it burned its retry budget, or missed mid-resize

	// API-layer operation counts (obj.HashSet — the table itself keeps
	// its single-load lookups instrumentation-free; see DESIGN.md).
	CtrHashInsert // Insert calls
	CtrHashRemove // Remove calls
	CtrHashLookup // Contains calls

	// hihash map update path (Get stays uninstrumented, like lookups).
	CtrMapUpdate  // Inc/Dec calls
	CtrMapCASFail // a bucket-pointer CAS lost its race
	CtrMapGrow    // a bucket-array doubling was published

	// Universal construction (conc).
	CtrHeadRetry     // an SC on head failed (contention)
	CtrUniversalHelp // a process applied another process's announced op
	CtrCombineBatch  // a combining batch was installed by one SC

	// Composition layers.
	CtrShardOp // an operation routed through a sharded object

	// NumCounters bounds the enumeration.
	NumCounters
)

var counterNames = [NumCounters]string{
	CtrBoundedUpdate: "bounded-update",
	CtrMarkSet:       "mark-set",
	CtrDestWritten:   "dest-written",
	CtrEvictSwap:     "evict-swap",
	CtrSourceCleared: "source-cleared",
	CtrFlagPlaced:    "flag-placed",
	CtrFlagCleared:   "flag-cleared",
	CtrGrowPublished: "grow-published",
	CtrDrainCopied:   "drain-copied",
	CtrDrainDropped:  "drain-dropped",
	CtrGonePlaced:    "gone-placed",
	CtrHashInsert:    "hash-insert",
	CtrHashRemove:    "hash-remove",
	CtrHashLookup:    "hash-lookup",
	CtrHashCASFail:   "hash-cas-fail",
	CtrLookupRetry:   "lookup-retry",
	CtrHelpRelocate:  "help-relocate",
	CtrLookupHelp:    "lookup-help",
	CtrMapUpdate:     "map-update",
	CtrMapCASFail:    "map-cas-fail",
	CtrMapGrow:       "map-grow",
	CtrHeadRetry:     "head-retry",
	CtrUniversalHelp: "universal-help",
	CtrCombineBatch:  "combine-batch",
	CtrShardOp:       "shard-op",
}

// String implements fmt.Stringer.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "counter(?)"
}

// Hist identifies one value distribution (log-bucketed histogram).
type Hist uint8

// The histograms. Small values (< 64) land in exact buckets, so
// structural distributions (probe lengths, batch sizes, shard indices)
// are recorded precisely; larger values (latencies in nanoseconds) fall
// into eight sub-buckets per power of two, ±12.5% resolution.
const (
	HistProbeLen    Hist = iota // groups walked by a displacing placement
	HistRelocDist               // landing distance of a completed relocation
	HistLookupRetry             // validation retries of a lookup that retried at all
	HistBatchSize               // operations folded into one combining SC
	HistShardIndex              // which shard an operation routed to
	HistBucketLen               // map bucket length after an update
	HistUpdateNanos             // workload-side update latency (ns)
	HistLookupNanos             // workload-side lookup latency (ns)

	// NumHists bounds the enumeration.
	NumHists
)

var histNames = [NumHists]string{
	HistProbeLen:    "probe-len",
	HistRelocDist:   "reloc-dist",
	HistLookupRetry: "lookup-retries",
	HistBatchSize:   "batch-size",
	HistShardIndex:  "shard-index",
	HistBucketLen:   "bucket-len",
	HistUpdateNanos: "update-ns",
	HistLookupNanos: "lookup-ns",
}

// String implements fmt.Stringer.
func (h Hist) String() string {
	if int(h) < len(histNames) {
		return histNames[h]
	}
	return "hist(?)"
}

// active is the installed recorder (an internal/hook point), empty when
// metrics are disabled. It is the single global the whole layer hangs
// off: the disabled path of every instrumented site is this load plus a
// nil check.
var active hook.Point[Recorder]

// Enable installs a fresh Recorder as the global sink and returns it.
// Any previously installed recorder stops receiving events (sites that
// already loaded it finish their current write against it).
func Enable() *Recorder {
	r := NewRecorder()
	active.Install(r)
	return r
}

// EnableWith installs r (which may be shared with direct Recorder use).
func EnableWith(r *Recorder) { active.Install(r) }

// Disable uninstalls the global recorder and returns it (nil if metrics
// were already disabled), so callers can still snapshot what was
// gathered.
func Disable() *Recorder { return active.Uninstall() }

// Active returns the installed recorder, nil when disabled.
func Active() *Recorder { return active.Load() }

// Enabled reports whether a recorder is installed. Drivers use it to
// skip building values that only exist to be observed (e.g. timing an
// operation costs two clock reads — don't pay them to observe nothing).
func Enabled() bool { return active.Enabled() }

// Inc adds 1 to counter c. Disabled cost: one atomic load + branch.
func Inc(c Counter) {
	if r := active.Load(); r != nil {
		r.shard().counters[c].Add(1)
	}
}

// Add adds n to counter c.
func Add(c Counter, n uint64) {
	if r := active.Load(); r != nil {
		r.shard().counters[c].Add(n)
	}
}

// Observe records value v into histogram h.
func Observe(h Hist, v uint64) {
	if r := active.Load(); r != nil {
		r.observe(h, v)
	}
}

// cacheLine separates neighbouring shards' hot words.
const cacheLine = 64

// histShard is one goroutine-shard's view of one histogram.
type histShard struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// shard is one goroutine-shard: a padded block of counters followed by
// the histogram arrays. The pads keep the counter block (the hottest
// words) off the cache lines of the neighbouring shard's tail.
type shard struct {
	counters [NumCounters]atomic.Uint64
	_        [cacheLine]byte
	hists    [NumHists]histShard
	_        [cacheLine]byte
}

// Recorder accumulates events into per-goroutine shards. All methods
// are safe for concurrent use; Snapshot merges the shards into one
// consistent-enough view (each cell is read atomically, the composite
// is not — totals lag in-flight writers by at most a few events).
type Recorder struct {
	shards []shard
	mask   uint64
}

// NewRecorder returns a recorder sized to the machine: the shard count
// is GOMAXPROCS rounded up to a power of two, capped at 64.
func NewRecorder() *Recorder {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n *= 2
	}
	return &Recorder{shards: make([]shard, n), mask: uint64(n - 1)}
}

// shard picks the calling goroutine's shard by hashing a stack address:
// distinct goroutines live on distinct stacks, so concurrent writers
// spread across shards without any goroutine-local storage. The mapping
// is only a contention-spreading heuristic (a stack growth moves it);
// every cell is atomic regardless.
func (r *Recorder) shard() *shard {
	var probe byte
	h := uint64(uintptr(unsafe.Pointer(&probe)))
	h ^= h >> 12
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return &r.shards[h&r.mask]
}

// Inc adds n to counter c.
func (r *Recorder) Inc(c Counter, n uint64) { r.shard().counters[c].Add(n) }

// Observe records value v into histogram h.
func (r *Recorder) Observe(h Hist, v uint64) { r.observe(h, v) }

func (r *Recorder) observe(h Hist, v uint64) {
	hs := &r.shard().hists[h]
	hs.buckets[bucketOf(v)].Add(1)
	hs.count.Add(1)
	hs.sum.Add(v)
}

// NumShards returns the recorder's shard count (for tests).
func (r *Recorder) NumShards() int { return len(r.shards) }
