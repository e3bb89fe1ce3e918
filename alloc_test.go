package limitless_test

// Allocation-regression gate for the one-engine hot path. The
// zero-alloc work (message arenas, MSHR free lists, hoisted workload
// continuations) and run-scoped memory (cache pages, message chunks,
// directory tables and entry chunks, and engine buckets recycled through
// Machine.Release) brought the benchmark Weather run from ~114k
// allocations and 3.4 MB per simulation down to ~7.8k and ~0.55 MB; this
// test pins the steady state so an accidental per-event or per-message
// allocation (each fires hundreds of thousands of times per run), or a
// buffer that stops being recycled, shows up as a tier-1 failure rather
// than a silent throughput regression.

import (
	"math"
	"runtime"
	"testing"

	limitless "limitless"
)

// allocCeiling is the allowed steady-state allocation count for one
// sequential 64-processor LimitLESS(4) Weather run — the configuration of
// BenchmarkSimulatorThroughput. Measured ~7.8k once the machine's buffers
// are recycled and the barrier's continuations are built once per
// participant (what is left is dominated by per-node controller and
// processor construction and per-thread workload setup); the ceiling
// leaves ~20% headroom for benign drift while staying far below the ~114k
// of the pre-arena simulator, and orders of magnitude below the ~150k
// actions per run that a per-event allocation would cost.
const allocCeiling = 9400

// The bytes ceilings bound the heap bytes one steady-state run allocates,
// which is what paces the garbage collector. They sit ~25% above the
// measured values: Weather ~0.55 MB, Multigrid ~0.44 MB per run. A buffer
// that stops being recycled at Machine.Release trips them: a Weather run
// fills ~0.6 MB of cache pages and over 1 MB of message chunks.
const (
	weatherBytesCeiling   = 690_000
	multigridBytesCeiling = 545_000
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
// occasional batch in which a collection emptied a pool mid-run.
func bytesPerRun(run func()) float64 {
	const batches, calls = 3, 4
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
	t.Logf("steady-state allocations per run: %.0f (ceiling %d)", allocs, allocCeiling)
	if allocs > allocCeiling {
		t.Errorf("sequential Weather run allocates %.0f times, above the pinned ceiling %d; "+
			"something on the per-event or per-message path has started allocating",
			allocs, allocCeiling)
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
		wl      func(int) limitless.Workload
		ceiling float64
	}{
		{"weather", limitless.Weather, weatherBytesCeiling},
		{"multigrid", limitless.Multigrid, multigridBytesCeiling},
	} {
		cfg := limitless.Config{Procs: benchProcs, Scheme: limitless.LimitLESS, Pointers: 4}
		got := bytesPerRun(func() {
			if _, err := limitless.Run(cfg, c.wl(benchProcs)); err != nil {
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
