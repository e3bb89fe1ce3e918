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

// shardedTestMachine builds a 16-node machine whose nodes hammer a few
// shared blocks — enough cross-node traffic to make any merge-order or
// synchronization slip visible in the cycle counts.
func shardedTestMachine(shards, workers int) *Machine {
	params := coherence.DefaultParams(16)
	params.Scheme = coherence.LimitLESS
	params.Pointers = 4
	m := New(Config{Width: 4, Height: 4, Contexts: 1, Params: params,
		Shards: shards, ShardWorkers: workers})
	hot := Block(0, 1)
	flag := Block(5, 1)
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
					th.Store(Block(id, 1), uint64(i), func(_ uint64, th *workload.Thread) {
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

// TestShardedWorkerInvariance: ShardWorkers is a wall-clock knob, never a
// semantic one. Four requested shards on one, two and four workers build
// one, two and four engines, and all three give the same Result.
func TestShardedWorkerInvariance(t *testing.T) {
	ref := shardedTestMachine(4, 1).Run()
	for _, workers := range []int{2, 4} {
		got := shardedTestMachine(4, workers).Run()
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}

// TestShardedShardCountInvariance: shard counts 1..16, each shard on its
// own worker, all yield the windowed semantics' one deterministic answer.
// The window cadence is partition-independent too: every window starts at
// the global minimum deadline, which no partition changes, so every
// windowed shard count runs the same number of windows.
func TestShardedShardCountInvariance(t *testing.T) {
	ref := shardedTestMachine(1, 1).Run()
	if ref.Cycles == 0 || ref.Network.Packets == 0 {
		t.Fatalf("degenerate reference run: %+v", ref)
	}
	var windows uint64
	for _, shards := range []int{2, 4, 8, 16} {
		m := shardedTestMachine(shards, shards)
		got := m.Run()
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("shards=%d diverged:\n got %+v\nwant %+v", shards, got, ref)
		}
		w := m.sharded.Windows()
		if w == 0 {
			t.Fatalf("shards=%d ran no windows", shards)
		}
		if windows == 0 {
			windows = w
		} else if w != windows {
			t.Errorf("shards=%d ran %d windows, shards=2 ran %d", shards, w, windows)
		}
	}
}

// TestShardedRunUntil: the windowed engine honors partial-run limits the
// same way at every shard count.
func TestShardedRunUntil(t *testing.T) {
	limit := int64(400)
	refRes, refDone := shardedTestMachine(1, 1).RunUntil(400)
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

// TestShardedEngineCount: New builds one shard per worker, never more than
// requested and never more than one per node, Shards: 0 builds one engine
// (and reports Shards 0), and every such machine runs.
func TestShardedEngineCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name                       string
		side, shards, workers, gmp int
		want                       int
	}{
		{"shards above nodes", 2, 64, 64, 0, 4},
		{"workers above shards", 4, 4, 8, 0, 4},
		{"shards above workers", 4, 4, 2, 0, 2},
		{"one worker", 4, 16, 1, 0, 1},
		{"GOMAXPROCS workers", 4, 8, 0, 3, 3},
		{"GOMAXPROCS 1", 4, 8, 0, 1, 1},
		{"sequential", 4, 0, 4, 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.gmp > 0 {
				runtime.GOMAXPROCS(c.gmp)
			}
			nodes := c.side * c.side
			m := New(Config{Width: c.side, Height: c.side, Contexts: 1, Params: coherence.DefaultParams(nodes),
				Shards: c.shards, ShardWorkers: c.workers})
			if got := len(m.engines); got != c.want {
				t.Fatalf("Shards=%d ShardWorkers=%d GOMAXPROCS=%d on %d nodes: built %d engines, want %d",
					c.shards, c.workers, runtime.GOMAXPROCS(0), nodes, got, c.want)
			}
			wantCfg := c.want
			if c.shards == 0 {
				wantCfg = 0
			}
			if got := m.Config().Shards; got != wantCfg {
				t.Errorf("Config().Shards = %d, want %d", got, wantCfg)
			}
			if m.Eng != m.engines[0] {
				t.Error("Eng is not the first engine")
			}
			for id := mesh.NodeID(0); int(id) < nodes; id++ {
				m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
					th.Store(Block(id, 1), 1, func(_ uint64, th *workload.Thread) {})
				}))
			}
			if res := m.Run(); res.Cycles == 0 {
				t.Fatal("machine did not run")
			}
		})
	}
}
