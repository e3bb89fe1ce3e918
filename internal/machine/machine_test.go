package machine

import (
	"fmt"
	"testing"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/mesh"
	"limitless/internal/sim"
	"limitless/internal/workload"
)

// schemes lists every centralized configuration exercised by the shared
// protocol tests.
func allSchemes() []coherence.Params {
	mk := func(s coherence.Scheme, ptrs int) coherence.Params {
		p := coherence.DefaultParams(16)
		p.Scheme = s
		p.Pointers = ptrs
		return p
	}
	return []coherence.Params{
		mk(coherence.FullMap, 0),
		mk(coherence.LimitedNB, 2),
		mk(coherence.LimitedNB, 4),
		mk(coherence.LimitLESS, 1),
		mk(coherence.LimitLESS, 2),
		mk(coherence.LimitLESS, 4),
		mk(coherence.SoftwareOnly, 1),
		mk(coherence.Chained, 1),
	}
}

func newMachine(t *testing.T, params coherence.Params) *Machine {
	t.Helper()
	cfg := Config{Width: 4, Height: 4, Contexts: 1, Params: params}
	return New(cfg)
}

// scripted builds a workload from a plain op list with value checks.
type expect struct {
	load  bool
	addr  directory.Addr
	value uint64 // store value, or expected load value (checked)
	check bool
}

func scripted(t *testing.T, node mesh.NodeID, ops []expect) *workload.Thread {
	t.Helper()
	return workload.NewThread(func(th *workload.Thread) {
		workload.Each(th, len(ops), func(i int, th *workload.Thread, next func(*workload.Thread)) {
			op := ops[i]
			if op.load {
				th.Load(op.addr, func(v uint64, th *workload.Thread) {
					if op.check && v != op.value {
						t.Errorf("node %d op %d: load %#x = %d, want %d", node, i, op.addr, v, op.value)
					}
					next(th)
				})
			} else {
				th.Store(op.addr, op.value, func(_ uint64, th *workload.Thread) { next(th) })
			}
		}, func(*workload.Thread) {})
	})
}

func TestLocalReadAfterWrite(t *testing.T) {
	for _, params := range allSchemes() {
		params := params
		t.Run(fmt.Sprintf("%v-%d", params.Scheme, params.Pointers), func(t *testing.T) {
			m := newMachine(t, params)
			a := coherence.BlockAt(0, 100)
			m.SetWorkload(0, 0, scripted(t, 0, []expect{
				{load: false, addr: a, value: 42},
				{load: true, addr: a, value: 42, check: true},
			}))
			res := m.Run()
			if res.Cycles == 0 {
				t.Fatal("no cycles elapsed")
			}
		})
	}
}

func TestRemoteProducerConsumer(t *testing.T) {
	for _, params := range allSchemes() {
		params := params
		t.Run(fmt.Sprintf("%v-%d", params.Scheme, params.Pointers), func(t *testing.T) {
			m := newMachine(t, params)
			a := coherence.BlockAt(5, 3) // homed at node 5
			// Node 1 writes, then sets a flag; node 2 spins on the flag
			// and reads the value.
			flag := coherence.BlockAt(6, 1)
			m.SetWorkload(1, 0, workload.NewThread(func(th *workload.Thread) {
				th.Store(a, 77, func(_ uint64, th *workload.Thread) {
					th.Store(flag, 1, func(_ uint64, th *workload.Thread) {})
				})
			}))
			got := uint64(0)
			m.SetWorkload(2, 0, workload.NewThread(func(th *workload.Thread) {
				th.SpinUntil(flag, func(v uint64) bool { return v == 1 }, 8,
					func(_ uint64, th *workload.Thread) {
						th.Load(a, func(v uint64, th *workload.Thread) { got = v })
					})
			}))
			m.Run()
			if got != 77 {
				t.Fatalf("consumer read %d, want 77", got)
			}
		})
	}
}

func TestManyReadersOneWriter(t *testing.T) {
	for _, params := range allSchemes() {
		params := params
		t.Run(fmt.Sprintf("%v-%d", params.Scheme, params.Pointers), func(t *testing.T) {
			m := newMachine(t, params)
			hot := coherence.BlockAt(0, 1)
			ready := coherence.BlockAt(0, 2)
			// Node 0 initializes hot=5 and raises ready; all others read
			// hot (worker-set 15 > any pointer count), then node 0
			// rewrites it; readers re-read until they see the new value.
			m.SetWorkload(0, 0, workload.NewThread(func(th *workload.Thread) {
				th.Store(hot, 5, func(_ uint64, th *workload.Thread) {
					th.Store(ready, 1, func(_ uint64, th *workload.Thread) {
						// Give readers time to cache it, then rewrite.
						th.Compute(3000, func(_ uint64, th *workload.Thread) {
							th.Store(hot, 9, func(_ uint64, th *workload.Thread) {})
						})
					})
				})
			}))
			for id := mesh.NodeID(1); id < 16; id++ {
				id := id
				m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
					th.SpinUntil(ready, func(v uint64) bool { return v == 1 }, 8,
						func(_ uint64, th *workload.Thread) {
							th.Load(hot, func(v uint64, th *workload.Thread) {
								if v != 5 && v != 9 {
									t.Errorf("node %d read %d, want 5 or 9", id, v)
								}
								// Spin until the rewrite becomes visible.
								th.SpinUntil(hot, func(v uint64) bool { return v == 9 }, 16,
									func(_ uint64, th *workload.Thread) {})
							})
						})
				}))
			}
			res := m.Run()
			if params.Scheme == coherence.LimitLESS && res.Coherence.Traps == 0 {
				t.Error("LimitLESS run with worker-set 15 took no traps")
			}
			if params.Scheme == coherence.LimitedNB && res.Coherence.Evictions == 0 {
				t.Error("limited run with worker-set 15 evicted no pointers")
			}
		})
	}
}

func TestWriteInvalidatesAllReaders(t *testing.T) {
	// After the writer's store commits, every subsequent read must see the
	// new value (sequential consistency on one location).
	for _, params := range allSchemes() {
		params := params
		t.Run(fmt.Sprintf("%v-%d", params.Scheme, params.Pointers), func(t *testing.T) {
			m := newMachine(t, params)
			v := coherence.BlockAt(3, 4)
			phase := coherence.BlockAt(3, 5)
			// All nodes read v (=0), node 7 writes v=1 then phase=1;
			// all nodes spin on phase then read v expecting exactly 1.
			for id := mesh.NodeID(0); id < 16; id++ {
				id := id
				if id == 7 {
					m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
						th.Load(v, func(_ uint64, th *workload.Thread) {
							th.Compute(500, func(_ uint64, th *workload.Thread) {
								th.Store(v, 1, func(_ uint64, th *workload.Thread) {
									th.Store(phase, 1, func(_ uint64, th *workload.Thread) {})
								})
							})
						})
					}))
					continue
				}
				m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
					th.Load(v, func(first uint64, th *workload.Thread) {
						if first != 0 && first != 1 {
							t.Errorf("node %d initial read %d", id, first)
						}
						th.SpinUntil(phase, func(x uint64) bool { return x == 1 }, 8,
							func(_ uint64, th *workload.Thread) {
								th.Load(v, func(after uint64, th *workload.Thread) {
									if after != 1 {
										t.Errorf("node %d read %d after store committed, want 1", id, after)
									}
								})
							})
					})
				}))
			}
			m.Run()
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (cycles int64, msgs uint64) {
		params := coherence.DefaultParams(16)
		params.Pointers = 2
		m := newMachine(t, params)
		for _, w := range []mesh.NodeID{0, 3, 9} {
			w := w
			m.SetWorkload(w, 0, scripted(t, w, []expect{
				{addr: coherence.BlockAt(5, 1), value: uint64(w)},
				{load: true, addr: coherence.BlockAt(6, 2)},
				{addr: coherence.BlockAt(5, 1), value: uint64(w) + 1},
			}))
		}
		res := m.Run()
		return int64(res.Cycles), res.Coherence.TotalSent()
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Fatalf("runs diverged: (%d,%d) vs (%d,%d)", c1, m1, c2, m2)
	}
}

func TestRMWAtomicity(t *testing.T) {
	for _, params := range allSchemes() {
		params := params
		t.Run(fmt.Sprintf("%v-%d", params.Scheme, params.Pointers), func(t *testing.T) {
			m := newMachine(t, params)
			ctr := coherence.BlockAt(2, 6)
			const perProc = 5
			for id := mesh.NodeID(0); id < 16; id++ {
				m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
					workload.Loop(th, perProc, func(i int, th *workload.Thread, next func(*workload.Thread)) {
						th.FetchAdd(ctr, 1, func(_ uint64, th *workload.Thread) { next(th) })
					}, func(*workload.Thread) {})
				}))
			}
			m.Run()
			// Read back the final value through node 2's directory.
			e := m.Nodes[2].MC.Dir().Entry(ctr)
			total := e.Value
			// The last increment may still live dirty in a cache; fold in
			// the owner's copy when the directory says Read-Write.
			if e.State == directory.ReadWrite {
				owner := e.Ptrs.Nodes()[0]
				if v, ok := m.Nodes[owner].Cache.Read(ctr); ok {
					total = v
				}
			}
			if total != 16*perProc {
				t.Fatalf("counter = %d, want %d (lost updates)", total, 16*perProc)
			}
		})
	}
}

func TestBarrierJoinsAllProcessors(t *testing.T) {
	params := coherence.DefaultParams(16)
	m := newMachine(t, params)
	bar := workload.NewBarrier(16, 4, workload.SequentialAllocator(5000))
	reached := make([]int, 16)
	for id := mesh.NodeID(0); id < 16; id++ {
		id := id
		m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
			workload.Loop(th, 3, func(i int, th *workload.Thread, next func(*workload.Thread)) {
				th.Compute(sim.Time(50+int64(id)*7), func(_ uint64, th *workload.Thread) {
					bar.Wait(th, int(id), uint64(i+1), func(th *workload.Thread) {
						reached[id]++
						next(th)
					})
				})
			}, func(*workload.Thread) {})
		}))
	}
	m.Run()
	for id, n := range reached {
		if n != 3 {
			t.Fatalf("node %d completed %d barriers, want 3", id, n)
		}
	}
	if bar.Depth() != 3 {
		t.Fatalf("tree depth = %d, want 3 for a 16-processor fan-in-4 static tree", bar.Depth())
	}
}

func TestWorkerSetCensus(t *testing.T) {
	params := coherence.DefaultParams(16)
	params.Scheme = coherence.FullMap
	m := newMachine(t, params)
	wide := coherence.BlockAt(0, 3)
	narrow := coherence.BlockAt(1, 4)
	for id := mesh.NodeID(0); id < 16; id++ {
		id := id
		m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
			th.Load(wide, func(_ uint64, th *workload.Thread) {
				if id < 2 {
					th.Load(narrow, func(_ uint64, th *workload.Thread) {})
				}
			})
		}))
	}
	m.Run()
	h := m.WorkerSetCensus()
	if h.Count() < 2 {
		t.Fatalf("census saw %d blocks, want >= 2", h.Count())
	}
	if h.Max() != 16 {
		t.Fatalf("max worker-set = %d, want 16", h.Max())
	}
	if got := m.Nodes[0].MC.Dir().Entry(wide).MaxSharers; got != 16 {
		t.Fatalf("wide block watermark = %d", got)
	}
	if got := m.Nodes[1].MC.Dir().Entry(narrow).MaxSharers; got != 2 {
		t.Fatalf("narrow block watermark = %d", got)
	}
}

func TestRunUntilPartial(t *testing.T) {
	params := coherence.DefaultParams(16)
	m := newMachine(t, params)
	for id := mesh.NodeID(0); id < 16; id++ {
		m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
			th.Compute(10_000, func(_ uint64, th *workload.Thread) {})
		}))
	}
	res, done := m.RunUntil(100)
	if done {
		t.Fatal("10k-cycle workload reported done at 100 cycles")
	}
	if res.Cycles > 100 {
		t.Fatalf("RunUntil overshot: %d", res.Cycles)
	}
}

func TestMachinePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad shape accepted")
		}
	}()
	New(Config{Width: 0, Height: 4})
}

func TestProfilePlacesTrapAlways(t *testing.T) {
	params := coherence.DefaultParams(16)
	m := newMachine(t, params)
	hot := coherence.BlockAt(0, 1)
	h := m.Profile(hot)
	// One node reads the profiled block; the software handler must see it.
	m.SetWorkload(3, 0, workload.NewThread(func(th *workload.Thread) {
		th.Load(hot, func(_ uint64, th *workload.Thread) {})
	}))
	for id := mesh.NodeID(0); id < 16; id++ {
		if id == 3 {
			continue
		}
		m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
			th.Compute(1, func(_ uint64, th *workload.Thread) {})
		}))
	}
	res := m.Run()
	if h.Stats().PacketsHandled != 1 {
		t.Fatalf("profiling handler saw %d packets, want 1", h.Stats().PacketsHandled)
	}
	if res.Coherence.Traps != 1 {
		t.Fatalf("traps = %d", res.Coherence.Traps)
	}
	if h.WorkerSet(hot) != 1 {
		t.Fatalf("profiled worker set = %d", h.WorkerSet(hot))
	}
}

func TestRegisterMigratoryFIFOEvicts(t *testing.T) {
	params := coherence.DefaultParams(16)
	params.Scheme = coherence.LimitLESS
	params.Pointers = 2
	m := newMachine(t, params)
	tok := coherence.BlockAt(0, 40)
	h := m.RegisterMigratory(tok)
	// Readers 1..5 arrive in turn; pointer overflows are FIFO-evicted in
	// software instead of growing a vector.
	for id := mesh.NodeID(1); id <= 5; id++ {
		id := id
		m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
			th.Compute(sim.Time(id)*100, func(_ uint64, th *workload.Thread) {
				th.Load(tok, func(_ uint64, th *workload.Thread) {})
			})
		}))
	}
	for id := mesh.NodeID(6); id < 16; id++ {
		m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
			th.Compute(1, func(_ uint64, th *workload.Thread) {})
		}))
	}
	m.SetWorkload(0, 0, workload.NewThread(func(th *workload.Thread) {
		th.Compute(1, func(_ uint64, th *workload.Thread) {})
	}))
	m.Run()
	if h.Evictions != 3 {
		t.Fatalf("software FIFO evictions = %d, want 3 (5 readers, 2 pointers)", h.Evictions)
	}
	e := m.Nodes[0].MC.Dir().Entry(tok)
	if e.Ptrs.Len() != 2 {
		t.Fatalf("pointer array = %v, want exactly 2 entries", e.Ptrs.Nodes())
	}
	if e.Meta != directory.Normal {
		t.Fatalf("meta = %v, want Normal", e.Meta)
	}
	// Earliest readers were evicted: 1, 2, 3 gone; 4, 5 remain.
	if !e.Ptrs.Contains(4) || !e.Ptrs.Contains(5) {
		t.Fatalf("pointers = %v, want [4 5]", e.Ptrs.Nodes())
	}
}

func TestDirectoryMemoryAccounting(t *testing.T) {
	// Per-entry asymptotics: full-map O(N), limited/LimitLESS O(log N).
	if full, lim := BitsPerEntry(coherence.FullMap, 64, 0), BitsPerEntry(coherence.LimitedNB, 64, 4); full <= lim {
		t.Errorf("full-map (%d bits) not above Dir4NB (%d bits) at 64 nodes", full, lim)
	}
	full1k := BitsPerEntry(coherence.FullMap, 1024, 0)
	ll1k := BitsPerEntry(coherence.LimitLESS, 1024, 4)
	if full1k < 1024 {
		t.Errorf("full-map at 1024 nodes = %d bits, want >= 1024 (a bit per processor)", full1k)
	}
	if ll1k > 64 {
		t.Errorf("LimitLESS4 at 1024 nodes = %d bits/entry, want O(log N) (<= 64)", ll1k)
	}

	// A run's accounting: entries counted, software peak only when the
	// scheme extends into software.
	params := coherence.DefaultParams(16)
	params.Scheme = coherence.LimitLESS
	params.Pointers = 2
	m := newMachine(t, params)
	hot := coherence.BlockAt(0, 1)
	for id := mesh.NodeID(0); id < 16; id++ {
		m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
			th.Load(hot, func(_ uint64, th *workload.Thread) {})
		}))
	}
	m.Run()
	dm := m.DirectoryMemory()
	if dm.Entries == 0 || dm.HardwareBits != dm.Entries*dm.HardwareBitsPerEntry {
		t.Fatalf("accounting inconsistent: %+v", dm)
	}
	if dm.SoftwareVectorBitsPeak != 16 {
		t.Fatalf("software peak = %d bits, want 16 (one vector of 16 bits)", dm.SoftwareVectorBitsPeak)
	}
}

// TestOraclesReachEveryLayer checks that each bit of Config.Oracles, alone
// and with every other, selects the reference implementation in the layer
// it names and nowhere else, so a differential test over the mask can never
// pass because a bit reaches nothing.
func TestOraclesReachEveryLayer(t *testing.T) {
	masks := []Oracles{0, AllOracles}
	for bit := OracleHeap; bit&AllOracles != 0; bit <<= 1 {
		masks = append(masks, bit)
	}
	for _, mask := range masks {
		m := New(Config{Width: 4, Height: 4, Contexts: 1, Params: coherence.DefaultParams(16), Oracles: mask})
		for i, w := range workload.Weather(workload.DefaultWeather(16)) {
			m.SetWorkload(mesh.NodeID(i), 0, w)
		}
		m.Run()
		check := func(layer string, selected bool, bit Oracles) {
			if selected != (mask&bit != 0) {
				t.Errorf("oracles=%03b: %s oracle selected = %v", mask, layer, selected)
			}
		}
		check("heap scheduler", m.Eng.Scheduler() == sim.SchedHeap, OracleHeap)
		check("boxed storage", m.DirectoryMemory().Storage == "boxed", OracleBoxed)
	}
}
