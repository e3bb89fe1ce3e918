package check

import (
	"testing"

	"limitless/internal/coherence"
	"limitless/internal/fault"
	"limitless/internal/machine"
	"limitless/internal/mesh"
	"limitless/internal/protocol"
	"limitless/internal/sim"
	"limitless/internal/workload"
)

// Classic memory-model litmus tests, run under every scheme and a sweep of
// delayed message schedules. The Alewife protocol "enforces sequential
// consistency" (Section 2), so the forbidden outcomes must never appear.

// litmusMachine builds a 2x2 machine on the exploration preset's delay
// plan, seeded by seed, with every delay at most 30 cycles.
func litmusMachine(scheme coherence.Scheme, ptrs int, seed uint64) *machine.Machine {
	cfg := Explore(scheme, ptrs)
	cfg.Faults.Seed = seed
	cfg.Faults.DelayMax = 30
	return machine.New(machine.Config{Width: 2, Height: 2, Contexts: 1, Params: cfg.Params, Faults: fault.New(cfg.Faults)})
}

// litmusRun runs m to completion and fails on a halt or on any recorded
// protocol violation: the fault plan installs a violation recorder, which
// turns a protocol-impossible message into a record instead of a panic.
func litmusRun(t *testing.T, m *machine.Machine, seed uint64) {
	t.Helper()
	m.Run()
	if d := m.Diagnostic(); d != nil {
		t.Fatalf("seed %d: %s", seed, d)
	}
	for _, v := range m.Recorder().Violations() {
		t.Fatalf("seed %d: recorded violation: %s", seed, v)
	}
}

// litmusSchemes enumerates the protocol registry: every scheme that caches
// shared data (the private-only baseline routes shared references around
// the protocol under test), with a single hardware pointer wherever
// pointers matter, so overflow paths are exercised constantly.
var litmusSchemes = func() (out []struct {
	s    coherence.Scheme
	ptrs int
}) {
	for _, info := range protocol.Schemes() {
		if info.SharedUncached {
			continue
		}
		ptrs := 0
		if info.NeedsPointers {
			ptrs = 1
		}
		out = append(out, struct {
			s    coherence.Scheme
			ptrs int
		}{info.ID, ptrs})
	}
	return out
}()

// TestLitmusMessagePassing: MP. P0: x=1; y=1. P1: r1=y; r2=x.
// Forbidden under SC: r1=1 && r2=0.
func TestLitmusMessagePassing(t *testing.T) {
	x := coherence.BlockAt(0, 20)
	y := coherence.BlockAt(1, 21)
	for _, sc := range litmusSchemes {
		sc := sc
		t.Run(sc.s.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 15; seed++ {
				m := litmusMachine(sc.s, sc.ptrs, seed)
				var r1, r2 uint64
				m.SetWorkload(0, 0, workload.NewThread(func(th *workload.Thread) {
					th.Store(x, 1, func(_ uint64, th *workload.Thread) {
						th.Store(y, 1, func(_ uint64, th *workload.Thread) {})
					})
				}))
				m.SetWorkload(1, 0, workload.NewThread(func(th *workload.Thread) {
					th.Load(y, func(v uint64, th *workload.Thread) {
						r1 = v
						th.Load(x, func(v uint64, th *workload.Thread) { r2 = v })
					})
				}))
				m.SetWorkload(2, 0, noop())
				m.SetWorkload(3, 0, noop())
				litmusRun(t, m, seed)
				if r1 == 1 && r2 == 0 {
					t.Fatalf("seed %d: MP violation r1=1 r2=0", seed)
				}
			}
		})
	}
}

// TestLitmusStoreBuffering: SB. P0: x=1; r1=y. P1: y=1; r2=x.
// Forbidden under SC: r1=0 && r2=0.
func TestLitmusStoreBuffering(t *testing.T) {
	x := coherence.BlockAt(0, 22)
	y := coherence.BlockAt(1, 23)
	for _, sc := range litmusSchemes {
		sc := sc
		t.Run(sc.s.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 15; seed++ {
				m := litmusMachine(sc.s, sc.ptrs, seed)
				var r1, r2 uint64
				m.SetWorkload(0, 0, workload.NewThread(func(th *workload.Thread) {
					th.Store(x, 1, func(_ uint64, th *workload.Thread) {
						th.Load(y, func(v uint64, th *workload.Thread) { r1 = v })
					})
				}))
				m.SetWorkload(1, 0, workload.NewThread(func(th *workload.Thread) {
					th.Store(y, 1, func(_ uint64, th *workload.Thread) {
						th.Load(x, func(v uint64, th *workload.Thread) { r2 = v })
					})
				}))
				m.SetWorkload(2, 0, noop())
				m.SetWorkload(3, 0, noop())
				litmusRun(t, m, seed)
				if r1 == 0 && r2 == 0 {
					t.Fatalf("seed %d: SB violation r1=r2=0 (store buffering visible)", seed)
				}
			}
		})
	}
}

// TestLitmusCoherenceCO: two writers to one location; two observers must
// not see the writes in opposite orders (coherence order is global).
func TestLitmusCoherenceCO(t *testing.T) {
	x := coherence.BlockAt(0, 24)
	for _, sc := range litmusSchemes {
		sc := sc
		t.Run(sc.s.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 15; seed++ {
				m := litmusMachine(sc.s, sc.ptrs, seed)
				var a1, a2, b1, b2 uint64
				m.SetWorkload(0, 0, workload.NewThread(func(th *workload.Thread) {
					th.Store(x, 1, func(_ uint64, th *workload.Thread) {})
				}))
				m.SetWorkload(1, 0, workload.NewThread(func(th *workload.Thread) {
					th.Store(x, 2, func(_ uint64, th *workload.Thread) {})
				}))
				m.SetWorkload(2, 0, workload.NewThread(func(th *workload.Thread) {
					th.Load(x, func(v uint64, th *workload.Thread) {
						a1 = v
						th.Load(x, func(v uint64, th *workload.Thread) { a2 = v })
					})
				}))
				m.SetWorkload(3, 0, workload.NewThread(func(th *workload.Thread) {
					th.Load(x, func(v uint64, th *workload.Thread) {
						b1 = v
						th.Load(x, func(v uint64, th *workload.Thread) { b2 = v })
					})
				}))
				litmusRun(t, m, seed)
				// Forbidden: observer A sees 1 then 2 while B sees 2 then 1.
				if a1 == 1 && a2 == 2 && b1 == 2 && b2 == 1 {
					t.Fatalf("seed %d: CO violation: observers disagree on write order", seed)
				}
				if a1 == 2 && a2 == 1 && b1 == 1 && b2 == 2 {
					t.Fatalf("seed %d: CO violation (mirror)", seed)
				}
			}
		})
	}
}

// TestLitmusAtomicity: concurrent fetch-and-adds never lose updates, under
// delayed delivery, on every scheme.
func TestLitmusAtomicity(t *testing.T) {
	ctr := coherence.BlockAt(0, 25)
	for _, sc := range litmusSchemes {
		sc := sc
		t.Run(sc.s.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				m := litmusMachine(sc.s, sc.ptrs, seed)
				const per = 6
				for id := mesh.NodeID(0); id < 4; id++ {
					m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
						workload.Loop(th, per, func(_ int, th *workload.Thread, next func(*workload.Thread)) {
							th.FetchAdd(ctr, 1, func(_ uint64, th *workload.Thread) { next(th) })
						}, func(*workload.Thread) {})
					}))
				}
				litmusRun(t, m, seed)
				var final uint64
				e := m.Nodes[0].MC.Dir().Entry(ctr)
				final = e.Value
				for _, n := range m.Nodes {
					if v, ok := n.Cache.Read(ctr); ok && v > final {
						final = v
					}
				}
				if final != 4*per {
					t.Fatalf("seed %d: counter = %d, want %d", seed, final, 4*per)
				}
			}
		})
	}
}

func noop() *workload.Thread {
	return workload.NewThread(func(th *workload.Thread) {
		th.Compute(sim.Time(1), func(_ uint64, th *workload.Thread) {})
	})
}
