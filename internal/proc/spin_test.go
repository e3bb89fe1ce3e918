package proc_test

import (
	"fmt"
	"testing"

	"limitless/internal/coherence"
	"limitless/internal/proc"
	"limitless/internal/sim"
)

// pollCount returns an Until predicate that is satisfied on its k-th call,
// whatever the loaded value.
func pollCount(k int) func(uint64) bool {
	n := 0
	return func(uint64) bool {
		n++
		return n == k
	}
}

// outcome is what one run of a scenario exposes: the end time, the engine's
// dispatch count (the Result's Events) and every processor's counters.
type outcome struct {
	end    sim.Time
	events uint64
	stats  []proc.Stats
}

// runScenario builds a fresh rig, lets setup install workloads, and runs
// every processor to completion under mode.
func runScenario(t *testing.T, mode proc.Mode, nodes, contexts int, params coherence.Params, setup func(r *procRig)) outcome {
	t.Helper()
	r := newProcRig(t, nodes, contexts, params)
	for _, p := range r.procs {
		p.SetMode(mode)
	}
	setup(r)
	for _, p := range r.procs {
		p.Start()
	}
	r.eng.Run()
	o := outcome{end: r.eng.Now(), events: r.eng.Processed()}
	for i, p := range r.procs {
		if !p.Done() {
			t.Fatalf("mode=%v: processor %d did not finish", mode, i)
		}
		o.stats = append(o.stats, p.Stats())
	}
	return o
}

// runBothModes runs a scenario fused and event-per-instruction and fails
// unless the two agree cycle for cycle.
func runBothModes(t *testing.T, nodes, contexts int, params coherence.Params, setup func(r *procRig)) outcome {
	t.Helper()
	fused := runScenario(t, proc.ModeFused, nodes, contexts, params, setup)
	event := runScenario(t, proc.ModeEvent, nodes, contexts, params, setup)
	if fmt.Sprint(fused) != fmt.Sprint(event) {
		t.Fatalf("fused and event execution disagree:\nfused: %+v\nevent: %+v", fused, event)
	}
	return fused
}

// TestSpinPollCounts pins the processor-side poll loop against the
// instruction stream it replaces: a spin satisfied on poll k issues exactly
// k loads and k-1 backoffs, counted in Stats like ordinary instructions,
// and the run matches — end time, Events, every counter — the same loads
// and computes returned one by one from Next. Only two Next calls happen
// around the spin: the one that returns it and the one that receives the
// satisfying value.
func TestSpinPollCounts(t *testing.T) {
	params := coherence.DefaultParams(2)
	flag := addr(0, 1)
	for _, k := range []int{1, 2, 5} {
		// Backoff 0 is clamped to one cycle; 40 spans several compute slices.
		for _, backoff := range []sim.Time{0, 7, 40} {
			label := fmt.Sprintf("k=%d/backoff=%d", k, backoff)
			var spin *script
			got := runBothModes(t, 2, 1, params, func(r *procRig) {
				spin = &script{ops: []proc.Op{
					{Kind: proc.OpStore, Addr: flag, Value: 9, Shared: true},
					{Kind: proc.OpLoad, Addr: flag, Shared: true, Cycles: backoff, Until: pollCount(k)},
					{Kind: proc.OpCompute, Cycles: 3},
				}}
				r.procs[0].SetWorkload(0, spin)
			})
			want := runBothModes(t, 2, 1, params, func(r *procRig) {
				ops := []proc.Op{{Kind: proc.OpStore, Addr: flag, Value: 9, Shared: true}}
				for i := 0; i < k; i++ {
					if i > 0 {
						ops = append(ops, proc.Op{Kind: proc.OpCompute, Cycles: backoff})
					}
					ops = append(ops, proc.Op{Kind: proc.OpLoad, Addr: flag, Shared: true})
				}
				ops = append(ops, proc.Op{Kind: proc.OpCompute, Cycles: 3})
				r.procs[0].SetWorkload(0, &script{ops: ops})
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: spin run differs from the expanded stream:\nspin:     %+v\nexpanded: %+v", label, got, want)
			}
			st := got.stats[0]
			if st.Loads != uint64(k) || st.Instructions != uint64(2*k-1)+2 {
				t.Fatalf("%s: loads=%d instructions=%d, want %d and %d", label, st.Loads, st.Instructions, k, 2*k+1)
			}
			if fmt.Sprint(spin.vals) != "[0 9 9 0]" {
				t.Fatalf("%s: Next saw %v, want [0 9 9 0]", label, spin.vals)
			}
		}
	}
}

// TestSpinProcModesAgree runs spinners with assorted backoffs against a
// remote flag that a producer sets late — polls that hit, polls that miss
// after the invalidation, backoffs across slice boundaries — and requires
// fused and event execution to agree cycle for cycle.
func TestSpinProcModesAgree(t *testing.T) {
	params := coherence.DefaultParams(4)
	flag := addr(0, 4)
	for _, contexts := range []int{1, 2} {
		got := runBothModes(t, 4, contexts, params, func(r *procRig) {
			r.procs[0].SetWorkload(0, &script{ops: []proc.Op{
				{Kind: proc.OpCompute, Cycles: 300},
				{Kind: proc.OpStore, Addr: flag, Value: 1, Shared: true},
			}})
			for id, backoff := range []sim.Time{0, 5, 40} {
				r.procs[id+1].SetWorkload(0, &script{ops: []proc.Op{
					{Kind: proc.OpLoad, Addr: flag, Shared: true, Cycles: backoff,
						Until: func(v uint64) bool { return v == 1 }},
					{Kind: proc.OpCompute, Cycles: 10},
				}})
			}
		})
		for id := 1; id < 4; id++ {
			if got.stats[id].Loads < 2 {
				t.Fatalf("contexts=%d: spinner %d polled %d times, want it to wait for the store",
					contexts, id, got.stats[id].Loads)
			}
		}
	}
}

// TestSpinTrapClaimsNextSliceBoundary is TestTrapClaimsNextSliceBoundary
// with the home node backing off inside a spin-wait instead of running one
// long compute: the backoff is compute like any other, so a LimitLESS trap
// landing mid-backoff claims the pipeline at the next 16-cycle slice
// boundary. Both modes must reproduce the expanded load/compute/load
// stream exactly, and sweeping the trap's arrival moves the overflowing
// load's completion only in whole slices.
func TestSpinTrapClaimsNextSliceBoundary(t *testing.T) {
	block := addr(0, 3)
	spin := func() proc.Workload {
		return &script{ops: []proc.Op{
			{Kind: proc.OpLoad, Addr: block, Shared: true, Cycles: 5000, Until: pollCount(2)},
		}}
	}
	expanded := func() proc.Workload {
		return &script{ops: []proc.Op{
			{Kind: proc.OpLoad, Addr: block, Shared: true},
			{Kind: proc.OpCompute, Cycles: 5000},
			{Kind: proc.OpLoad, Addr: block, Shared: true},
		}}
	}
	for _, mode := range []proc.Mode{proc.ModeFused, proc.ModeEvent} {
		var first sim.Time
		for d := sim.Time(30); d <= 50; d += 2 {
			end, done, traps := runTrapBoundary(t, mode, d, spin())
			wantEnd, wantDone, wantTraps := runTrapBoundary(t, proc.ModeEvent, d, expanded())
			if end != wantEnd || done != wantDone || traps != wantTraps {
				t.Fatalf("mode=%v delay=%d: spin (end=%d done=%d traps=%d) differs from expanded (end=%d done=%d traps=%d)",
					mode, d, end, done, traps, wantEnd, wantDone, wantTraps)
			}
			if traps != 1 {
				t.Fatalf("mode=%v delay=%d: %d traps serviced, want 1", mode, d, traps)
			}
			if d == 30 {
				first = done
			}
			if (done-first)%16 != 0 {
				t.Errorf("mode=%v delay=%d: overflowing load completed at %d, off the slice grid through %d",
					mode, d, done, first)
			}
		}
	}
}

// TestSpinRemoteMissSwitchesContexts: a spin whose first poll misses
// remotely blocks its context like any remote load, so a multi-context
// processor switches to another ready context and the spin resumes
// polling once the miss returns — until the flag's producer sets it.
func TestSpinRemoteMissSwitchesContexts(t *testing.T) {
	params := coherence.DefaultParams(2)
	flag := addr(1, 5)
	var spin *script
	got := runBothModes(t, 2, 2, params, func(r *procRig) {
		spin = &script{ops: []proc.Op{
			{Kind: proc.OpLoad, Addr: flag, Shared: true, Cycles: 8,
				Until: func(v uint64) bool { return v == 1 }},
		}}
		r.procs[0].SetWorkload(0, spin)
		r.procs[0].SetWorkload(1, &script{ops: []proc.Op{
			{Kind: proc.OpCompute, Cycles: 3},
			{Kind: proc.OpCompute, Cycles: 3},
		}})
		r.procs[1].SetWorkload(0, &script{ops: []proc.Op{
			{Kind: proc.OpCompute, Cycles: 200},
			{Kind: proc.OpStore, Addr: flag, Value: 1, Shared: true},
		}})
	})
	st := got.stats[0]
	if st.ContextSwitches == 0 {
		t.Fatal("no context switch on the spin's remote miss")
	}
	if st.Loads < 2 {
		t.Fatalf("spin polled %d times; it should have resumed after the switch", st.Loads)
	}
	if fmt.Sprint(spin.vals) != "[0 1]" {
		t.Fatalf("spinning context's Next saw %v, want [0 1]", spin.vals)
	}
}

// TestSpinUntilOnlyOnLoads: Until on any kind but OpLoad is a workload bug
// and panics at issue.
func TestSpinUntilOnlyOnLoads(t *testing.T) {
	until := func(uint64) bool { return true }
	for _, op := range []proc.Op{
		{Kind: proc.OpStore, Addr: addr(0, 1), Value: 1, Shared: true, Until: until},
		{Kind: proc.OpRMW, Addr: addr(0, 1), Shared: true, Until: until,
			Modify: func(old uint64) uint64 { return old + 1 }},
		{Kind: proc.OpCompute, Cycles: 4, Until: until},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Until on a %v did not panic", op.Kind)
				}
			}()
			r := newProcRig(t, 2, 1, coherence.DefaultParams(2))
			r.procs[0].SetWorkload(0, &script{ops: []proc.Op{op}})
			r.procs[0].Start()
			r.eng.Run()
		}()
	}
}
