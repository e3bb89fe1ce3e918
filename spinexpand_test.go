package limitless_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	limitless "limitless"
	"limitless/internal/proc"
)

// spinExpander is the oracle for the processor-side poll loop. It expands
// every spin-wait (an OpLoad carrying Until) back into the loop a workload
// would otherwise run through Next: a plain load, then — while Until
// rejects the loaded value — a backoff compute and the load again, each
// one Next call.
type spinExpander struct {
	inner     proc.Workload
	spin      proc.Op // the spin load being polled; Until is nil outside a spin
	backedOff bool    // the last op returned was the backoff
}

func (s *spinExpander) Next(prev uint64) (proc.Op, bool) {
	if s.spin.Until != nil {
		switch {
		case s.backedOff:
			s.backedOff = false
			return s.poll(), true
		case !s.spin.Until(prev):
			s.backedOff = true
			return proc.Op{Kind: proc.OpCompute, Cycles: s.spin.Cycles}, true
		}
		s.spin = proc.Op{}
	}
	op, ok := s.inner.Next(prev)
	if ok && op.Until != nil {
		s.spin = op
		return s.poll(), true
	}
	return op, ok
}

// poll is the spin load without its spin fields: an ordinary OpLoad.
func (s *spinExpander) poll() proc.Op {
	return proc.Op{Kind: proc.OpLoad, Addr: s.spin.Addr, Shared: s.spin.Shared}
}

// nextCounter counts the Next calls a processor makes into its program.
type nextCounter struct {
	inner proc.Workload
	calls *atomic.Uint64
}

func (c *nextCounter) Next(prev uint64) (proc.Op, bool) {
	c.calls.Add(1)
	return c.inner.Next(prev)
}

// runSpinExpanded runs the workload as built and with its spin-waits
// expanded, and fails unless the two Results are identical in every field.
// It also requires the expanded run to make more Next calls, so the
// processor-side loop was really exercised.
func runSpinExpanded(t *testing.T, cfg limitless.Config, mk func() limitless.Workload, label string) {
	t.Helper()
	var inProc, expanded atomic.Uint64
	got, err := limitless.Run(cfg, limitless.WrapPrograms(mk(), func(w proc.Workload) proc.Workload {
		return &nextCounter{inner: w, calls: &inProc}
	}))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := limitless.Run(cfg, limitless.WrapPrograms(mk(), func(w proc.Workload) proc.Workload {
		return &nextCounter{inner: &spinExpander{inner: w}, calls: &expanded}
	}))
	if err != nil {
		t.Fatalf("%s expanded: %v", label, err)
	}
	if got != want {
		t.Fatalf("%s: processor-side spin-waits and the expanded poll loop disagree:\nspin:     %+v\nexpanded: %+v",
			label, got, want)
	}
	if inProc.Load() >= expanded.Load() {
		t.Fatalf("%s: %d Next calls with processor-side spins, %d expanded; no spin polled twice",
			label, inProc.Load(), expanded.Load())
	}
}

// flagAndCounter is a Custom program built on Prog.SpinUntil: processor 0
// raises a flag late, everyone else spins on it, bumps a shared counter,
// and then spins until every other processor has arrived.
func flagAndCounter(nprocs int) limitless.Workload {
	flag := limitless.Block(0, 9)
	ctr := limitless.Block(1, 9)
	return limitless.Custom(nprocs, func(p int, pr *limitless.Prog) {
		if p == 0 {
			pr.Compute(400, func(pr *limitless.Prog) { pr.Store(flag, 1, func(*limitless.Prog) {}) })
			return
		}
		pr.SpinUntil(flag, func(v uint64) bool { return v == 1 }, func(_ uint64, pr *limitless.Prog) {
			pr.FetchAdd(ctr, 1, func(_ uint64, pr *limitless.Prog) {
				pr.SpinUntil(ctr, func(v uint64) bool { return v == uint64(nprocs-1) }, func(uint64, *limitless.Prog) {})
			})
		})
	})
}

// TestSpinExpansionEquivalence is the correctness gate for running
// spin-waits inside the processor: for every scheme, on the sequential and
// sharded engines, and for every spinning workload — barriers (Weather,
// Multigrid, ProducerConsumer), the migratory token ring and a Custom
// program — the Result must be bit-identical to the Next-level poll loop.
func TestSpinExpansionEquivalence(t *testing.T) {
	const procs = 16
	workloads := []struct {
		name string
		mk   func() limitless.Workload
	}{
		{"weather", func() limitless.Workload { return limitless.Weather(procs) }},
		{"multigrid", func() limitless.Workload { return limitless.Multigrid(procs) }},
		{"migratory", func() limitless.Workload { return limitless.Migratory(procs, 2) }},
		{"producer-consumer", func() limitless.Workload { return limitless.ProducerConsumer(procs, 4) }},
		{"custom", func() limitless.Workload { return flagAndCounter(procs) }},
	}
	for _, scheme := range allSchemes(t) {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			for _, shards := range []int{0, 2, 4} {
				cfg := limitless.Config{
					Procs: procs, Scheme: scheme, Pointers: 4, TrapService: 50,
					Verify: true, Shards: shards, ShardWorkers: 1,
				}
				for _, w := range workloads {
					runSpinExpanded(t, cfg, w.mk, fmt.Sprintf("%s/shards=%d/%s", scheme, shards, w.name))
				}
			}
		})
	}
}
