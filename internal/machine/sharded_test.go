package machine

import (
	"reflect"
	"runtime"
	"testing"

	"limitless/internal/coherence"
	"limitless/internal/mesh"
	"limitless/internal/sim"
	"limitless/internal/workload"
)

// shardedTestMachine builds a 16-node machine, with the deprecated shard
// fields set as given, whose nodes hammer a few shared blocks — enough
// cross-node traffic to make any change of claim order visible in the
// cycle counts.
func shardedTestMachine(shards, workers int) *Machine {
	params := coherence.DefaultParams(16)
	params.Scheme = coherence.LimitLESS
	params.Pointers = 4
	m := New(Config{Width: 4, Height: 4, Contexts: 1, Params: params,
		Shards: shards, ShardWorkers: workers})
	hot := coherence.BlockAt(0, 1)
	flag := coherence.BlockAt(5, 1)
	for id := mesh.NodeID(0); id < 16; id++ {
		id := id
		m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
			var step func(i int, _ uint64, th *workload.Thread)
			step = func(i int, _ uint64, th *workload.Thread) {
				if i == 0 {
					th.Store(flag, uint64(id), func(_ uint64, th *workload.Thread) {})
					return
				}
				th.Load(hot, func(_ uint64, th *workload.Thread) {
					th.Store(coherence.BlockAt(id, 1), uint64(i), func(_ uint64, th *workload.Thread) {
						th.Compute(sim.Time(id%3)+1, func(_ uint64, th *workload.Thread) {
							step(i-1, 0, th)
						})
					})
				})
			}
			step(12, 0, th)
		}))
	}
	return m
}

// The deprecated Shards and ShardWorkers fields are read by nothing: every
// machine runs on one engine. These tests hold that contract, which keeps
// configurations that still set the fields (the repository benchmark's
// weather-p256-shards16 among them) bit-identical to Shards: 0.

// TestShardedWorkerInvariance: any ShardWorkers value gives the Result of
// a machine that sets neither field.
func TestShardedWorkerInvariance(t *testing.T) {
	ref := shardedTestMachine(0, 0).Run()
	for _, workers := range []int{1, 2, 4} {
		got := shardedTestMachine(4, workers).Run()
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}

// TestShardedShardCountInvariance: any Shards value gives the Result of a
// machine that sets neither field.
func TestShardedShardCountInvariance(t *testing.T) {
	ref := shardedTestMachine(0, 0).Run()
	if ref.Cycles == 0 || ref.Network.Packets == 0 {
		t.Fatalf("degenerate reference run: %+v", ref)
	}
	for _, shards := range []int{1, 2, 4, 8, 16} {
		if got := shardedTestMachine(shards, shards).Run(); !reflect.DeepEqual(got, ref) {
			t.Fatalf("shards=%d diverged:\n got %+v\nwant %+v", shards, got, ref)
		}
	}
}

// TestShardedRunUntil: a partial run stops at the same point whatever
// Shards says.
func TestShardedRunUntil(t *testing.T) {
	limit := int64(400)
	refRes, refDone := shardedTestMachine(0, 0).RunUntil(400)
	if refDone {
		t.Skipf("limit %d no longer interrupts the run; lower it", limit)
	}
	for _, shards := range []int{2, 4} {
		res, done := shardedTestMachine(shards, shards).RunUntil(400)
		if done != refDone || !reflect.DeepEqual(res, refRes) {
			t.Fatalf("shards=%d RunUntil diverged (done=%v):\n got %+v\nwant %+v", shards, done, res, refRes)
		}
	}
}

// TestShardedEngineCount: whatever Shards, ShardWorkers and GOMAXPROCS
// say, New builds a machine that runs and reports the fields as given.
func TestShardedEngineCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name                       string
		side, shards, workers, gmp int
	}{
		{"shards above nodes", 2, 64, 64, 0},
		{"workers above shards", 4, 4, 8, 0},
		{"shards above workers", 4, 4, 2, 0},
		{"one worker", 4, 16, 1, 0},
		{"GOMAXPROCS workers", 4, 8, 0, 3},
		{"GOMAXPROCS 1", 4, 8, 0, 1},
		{"sequential", 4, 0, 4, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.gmp > 0 {
				runtime.GOMAXPROCS(c.gmp)
			}
			nodes := c.side * c.side
			m := New(Config{Width: c.side, Height: c.side, Contexts: 1, Params: coherence.DefaultParams(nodes),
				Shards: c.shards, ShardWorkers: c.workers})
			if cfg := m.Config(); cfg.Shards != c.shards || cfg.ShardWorkers != c.workers {
				t.Errorf("Config() reports Shards=%d ShardWorkers=%d, want %d and %d as given",
					cfg.Shards, cfg.ShardWorkers, c.shards, c.workers)
			}
			for id := mesh.NodeID(0); int(id) < nodes; id++ {
				m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
					th.Store(coherence.BlockAt(id, 1), 1, func(_ uint64, th *workload.Thread) {})
				}))
			}
			if res := m.Run(); res.Cycles == 0 {
				t.Fatal("machine did not run")
			}
		})
	}
}
