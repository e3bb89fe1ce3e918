package limitless_test

// Allocation-regression gate for the one-engine hot path. The
// zero-alloc work (message arenas, MSHR free lists, hoisted workload
// continuations), run-scoped buffers (cache pages, message chunks,
// directory tables and entry chunks, engine buckets) and pooled per-node
// objects (controllers, processors, caches and IPI queues with their
// packets, all handed back through Machine.Release) brought the benchmark
// Weather run from ~114k allocations and 3.4 MB per simulation down to
// ~3.4k and ~134 KB. Most of what is left is the workload
// generators' per-thread continuations and barrier trees, built afresh
// for every run. This test pins the steady state so an accidental
// per-event, per-message or per-trap allocation (each fires hundreds to
// hundreds of thousands of times per run), or a buffer or object that
// stops being recycled, shows up as a tier-1 failure rather than a silent
// throughput regression.

import (
	"math"
	"runtime"
	"testing"

	limitless "limitless"
)

// allocCeiling is the allowed steady-state allocation count for one
// sequential 64-processor LimitLESS(4) Weather run — the configuration of
// BenchmarkSimulatorThroughput. Measured ~3.42k once the machine's objects
// and buffers are recycled (was ~7.5k with each node's objects built
// afresh); the ceiling leaves ~20% headroom for benign drift while staying
// far below the ~114k of the pre-arena simulator, and orders of magnitude
// below the ~150k actions per run that a per-event allocation would cost.
const allocCeiling = 4100

// raceAllocCeiling replaces allocCeiling in race builds, where sync.Pool
// drops Puts at random, so a share of each run's per-node objects is built
// afresh. It is the ceiling from before the per-node objects were pooled:
// a run that drew no pooled object at all stays under it, and a per-event
// or per-message allocation still lands far above it.
const raceAllocCeiling = 9400

// The bytes ceilings bound the heap bytes one steady-state run allocates,
// which is what paces the garbage collector. They sit ~25% above the
// measured values: Weather ~134 KB, Multigrid ~104 KB and a one-engine
// P=256 Weather ~540 KB per run (~0.54 MB, ~0.43 MB and ~2.2 MB before the
// per-node objects were pooled). An object or buffer that stops being
// recycled at Machine.Release trips them: a P=64 node's memory controller
// alone took ~2 KB, and a Weather run fills ~0.6 MB of cache pages and
// over 1 MB of message chunks.
const (
	weatherBytesCeiling    = 168_000
	multigridBytesCeiling  = 131_000
	weather256BytesCeiling = 676_000
)

// dirBytesCeiling bounds the packed directory's measured bytes per entry
// for the same run. A LimitLESS(4) entry holds its four hardware pointers
// inline in the 24-byte set header; only software-extended lines add
// arena words, so the average must stay well under the boxed
// representation's 72 B/entry floor (header + interface + Limited
// struct). Measured ~25 B/entry; the ceiling catches a regression to
// heap-boxed sets or an arena leak.
const dirBytesCeiling = 40.0

// bytesPerRun returns the heap bytes one call of run allocates in the
// steady state: the smallest TotalAlloc delta per call over a few batches,
// after a warm-up call has filled the pools. A buffer that is not recycled
// costs every call, so it shows in every batch; the minimum drops the
// occasional batch in which a collection emptied a pool mid-run. Like
// testing.AllocsPerRun it runs on one P: sync.Pool keeps one object per P
// where no other P can draw it, so a goroutine that moved between Ps would
// miss a pooled engine or cache and count its rebuild.
func bytesPerRun(run func()) float64 {
	const batches, calls = 3, 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	best := math.Inf(1)
	for b := 0; b < batches; b++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/calls)
	}
	return best
}

func TestSequentialAllocRegression(t *testing.T) {
	cfg := limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4}
	var dirBytesPerEntry float64
	run := func() {
		res, err := limitless.Run(cfg, limitless.Weather(benchProcs))
		if err != nil {
			t.Fatal(err)
		}
		dirBytesPerEntry = res.DirectoryBytesPerEntry
	}
	run() // fill the pools and engine free lists
	allocs := testing.AllocsPerRun(3, run)
	ceiling := allocCeiling
	if raceEnabled {
		ceiling = raceAllocCeiling
	}
	t.Logf("steady-state allocations per run: %.0f (ceiling %d)", allocs, ceiling)
	if allocs > float64(ceiling) {
		t.Errorf("sequential Weather run allocates %.0f times, above the pinned ceiling %d; "+
			"something on the per-event or per-message path has started allocating",
			allocs, ceiling)
	}
	t.Logf("directory bytes per entry: %.1f (ceiling %.0f)", dirBytesPerEntry, dirBytesCeiling)
	if dirBytesPerEntry <= 0 || dirBytesPerEntry > dirBytesCeiling {
		t.Errorf("directory measures %.1f B/entry, outside (0, %.0f]; "+
			"the packed sharer sets have regressed toward the boxed footprint or the arena is leaking",
			dirBytesPerEntry, dirBytesCeiling)
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

func TestSequentialAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector, so recycling cannot be measured")
	}
	for _, c := range []struct {
		name    string
		procs   int
		wl      func(int) limitless.Workload
		ceiling float64
	}{
		{"weather", benchProcs, limitless.Weather, weatherBytesCeiling},
		{"multigrid", benchProcs, limitless.Multigrid, multigridBytesCeiling},
		{"weather P=256", 256, limitless.Weather, weather256BytesCeiling},
	} {
		cfg := limitless.Config{Procs: c.procs, Scheme: limitless.LimitLESS, Pointers: 4}
		got := bytesPerRun(func() {
			if _, err := limitless.Run(cfg, c.wl(c.procs)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: steady-state bytes allocated per run: %.0f (ceiling %.0f)", c.name, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("sequential %s run allocates %.0f bytes, above the pinned ceiling %.0f; "+
				"a run-scoped buffer is no longer recycled at Machine.Release, or a new per-run "+
				"allocation has appeared", c.name, got, c.ceiling)
		}
	}
}
