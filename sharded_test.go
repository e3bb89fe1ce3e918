package limitless_test

import (
	"strings"
	"testing"

	limitless "limitless"
	"limitless/internal/trace"
)

// TestShardedEquivalenceAllSchemes is the cross-engine determinism table:
// every directory scheme at P=16 must produce bit-identical Results — cycle
// counts and all aggregated statistics — for Shards ∈ {0, 1, 2, 4}, each
// shard on its own worker. Shards 0 and 1 build one engine that claims each
// cycle's traffic at the end of the cycle; 2 and 4 run windowed shards. Any
// divergence means the two builds disagree on the canonical claim order or
// the parallel engine leaked nondeterminism (merge order, shared state, or
// a lookahead bug). Run in CI under -race, where it doubles as the
// data-race probe for the worker pool.
func TestShardedEquivalenceAllSchemes(t *testing.T) {
	schemes := []struct {
		name     string
		scheme   limitless.Scheme
		pointers int
	}{
		{"FullMap", limitless.FullMap, 0},
		{"Dir4NB", limitless.LimitedNB, 4},
		{"Chained", limitless.Chained, 0},
		{"SoftwareOnly", limitless.SoftwareOnly, 0},
		{"LimitLESS4", limitless.LimitLESS, 4},
	}
	const procs = 16
	for _, sc := range schemes {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			run := func(shards int) limitless.Result {
				cfg := limitless.Config{Procs: procs, Scheme: sc.scheme, Pointers: sc.pointers,
					TrapService: 50, Shards: shards, ShardWorkers: shards}
				res, err := limitless.Run(cfg, limitless.Weather(procs))
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				return res
			}
			ref := run(0)
			if ref.Cycles == 0 || ref.Messages == 0 {
				t.Fatalf("degenerate reference run: %+v", ref)
			}
			for _, shards := range []int{1, 2, 4} {
				if got := run(shards); got != ref {
					t.Errorf("shards=%d diverged from Shards=0:\n got %+v\nwant %+v",
						shards, got, ref)
				}
			}
		})
	}
}

// TestShardedRepeatable: the same sharded configuration run twice is
// bit-identical — the parallel engine must not import wall-clock
// scheduling into the simulation.
func TestShardedRepeatable(t *testing.T) {
	cfg := limitless.Config{Procs: 16, Scheme: limitless.LimitLESS, Pointers: 4,
		TrapService: 50, Shards: 4, ShardWorkers: 4}
	first, err := limitless.Run(cfg, limitless.Weather(16))
	if err != nil {
		t.Fatal(err)
	}
	second, err := limitless.Run(cfg, limitless.Weather(16))
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("two identical sharded runs diverged:\n%+v\n%+v", first, second)
	}
}

// TestShardedRejectsTraceWorkloads: the post-mortem trace replayer shares
// mutable scheduling state across processors, which the parallel shards
// cannot touch concurrently; Run must refuse rather than race.
func TestShardedRejectsTraceWorkloads(t *testing.T) {
	events := []trace.Event{
		{Thread: 0, Kind: trace.Load, Addr: 64, Shared: true},
		{Thread: 1, Kind: trace.Load, Addr: 64, Shared: true},
	}
	wl, err := limitless.FromEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	// The refusal depends on the requested Shards alone, never on the shards
	// the host's workers would build: with one worker the machine would run
	// one shard, and the trace workload is still refused.
	for _, workers := range []int{0, 1, 2} {
		cfg := limitless.Config{Scheme: limitless.FullMap, Shards: 2, ShardWorkers: workers}
		_, err = limitless.Run(cfg, wl)
		if err == nil {
			t.Fatalf("trace workload with Shards=2 ShardWorkers=%d did not error", workers)
		}
		// The refusal must name both sides of the conflict and the way out.
		for _, want := range []string{"trace", "Shards=2", "-shards", "Shards <= 1"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("rejection %q does not mention %q", err, want)
			}
		}
	}
	cfg := limitless.Config{Scheme: limitless.FullMap, Shards: 1}
	if _, err := limitless.Run(cfg, wl); err != nil {
		t.Fatalf("trace workload with Shards=1 should run sequentially: %v", err)
	}
}
