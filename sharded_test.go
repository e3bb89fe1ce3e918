package limitless_test

import (
	"testing"

	limitless "limitless"
	"limitless/internal/trace"
)

// The deprecated Shards and ShardWorkers fields of Config are read by
// nothing: every run uses one engine. These tests hold that contract at
// the facade, so configurations that still set the fields keep their
// Results.

// TestShardedEquivalenceAllSchemes: every directory scheme at P=16 gives
// the bit-identical Result — cycle counts and every aggregated statistic —
// for Shards ∈ {0, 1, 2, 4}, each with as many ShardWorkers.
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

// TestShardedRepeatable: the same configuration run twice is bit-identical
// — nothing of the host, the goroutine schedule included, reaches the
// simulation.
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
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", first, second)
	}
}

// TestTraceWorkloadIgnoresShards: a trace workload runs under any config;
// at Shards: 4 it gives the Result it gives at Shards: 0.
func TestTraceWorkloadIgnoresShards(t *testing.T) {
	events := []trace.Event{
		{Thread: 0, Kind: trace.Store, Addr: 64, Value: 7, Shared: true},
		{Thread: 1, Kind: trace.Load, Addr: 64, Shared: true},
		{Thread: 2, Kind: trace.Load, Addr: 64, Shared: true},
		{Thread: 3, Kind: trace.Load, Addr: 128, Shared: true},
	}
	run := func(shards int) limitless.Result {
		wl, err := limitless.FromEvents(events)
		if err != nil {
			t.Fatal(err)
		}
		cfg := limitless.Config{Scheme: limitless.FullMap, Shards: shards, ShardWorkers: shards}
		res, err := limitless.Run(cfg, wl)
		if err != nil {
			t.Fatalf("trace workload with Shards=%d: %v", shards, err)
		}
		return res
	}
	ref := run(0)
	if ref.Cycles == 0 || ref.Messages == 0 {
		t.Fatalf("degenerate trace run: %+v", ref)
	}
	if got := run(4); got != ref {
		t.Fatalf("trace workload at Shards=4 diverged from Shards=0:\n got %+v\nwant %+v", got, ref)
	}
}
