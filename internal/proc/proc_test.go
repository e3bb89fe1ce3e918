package proc_test

import (
	"testing"

	"limitless/internal/cache"
	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/mesh"
	"limitless/internal/proc"
	"limitless/internal/sim"
	"limitless/internal/swdir"
)

// procRig builds a small machine of processors over bare controllers.
type procRig struct {
	eng   *sim.Engine
	procs []*proc.Processor
	ccs   []*coherence.CacheController
	mcs   []*coherence.MemoryController
}

func newProcRig(t *testing.T, nodes int, contexts int, params coherence.Params) *procRig {
	t.Helper()
	eng := sim.New()
	params.Nodes = nodes
	nw := mesh.New(eng, mesh.DefaultConfig(nodes, 1))
	r := &procRig{eng: eng}
	for id := mesh.NodeID(0); int(id) < nodes; id++ {
		c := cache.New(cache.Config{Lines: 64, BlockWords: params.BlockWords})
		cc := coherence.NewCacheController(eng, nw, id, params, coherence.HomeOf, c)
		p := proc.New(eng, cc, params.Timing, contexts)
		mc := coherence.NewMemoryController(eng, nw, id, params, p)
		p.Attach(mc, swdir.New(mc))
		r.procs = append(r.procs, p)
		r.ccs = append(r.ccs, cc)
		r.mcs = append(r.mcs, mc)
		func(cc *coherence.CacheController, mc *coherence.MemoryController) {
			nw.Register(id, func(pkt *mesh.Packet) {
				m := pkt.Payload.(*coherence.Msg)
				if m.Type.ToMemory() {
					mc.Handle(pkt.Src, m)
				} else {
					cc.HandleMem(pkt.Src, m)
				}
			})
		}(cc, mc)
	}
	return r
}

// script is a fixed instruction list workload.
type script struct {
	ops  []proc.Op
	i    int
	vals []uint64 // values passed to Next, recorded
}

func (s *script) Next(prev uint64) (proc.Op, bool) {
	s.vals = append(s.vals, prev)
	if s.i >= len(s.ops) {
		return proc.Op{}, false
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

func addr(home mesh.NodeID, idx uint64) directory.Addr { return coherence.BlockAt(home, idx) }

func TestProcessorRunsScript(t *testing.T) {
	r := newProcRig(t, 2, 1, coherence.DefaultParams(2))
	s := &script{ops: []proc.Op{
		{Kind: proc.OpStore, Addr: addr(0, 1), Value: 7, Shared: true},
		{Kind: proc.OpLoad, Addr: addr(0, 1), Shared: true},
		{Kind: proc.OpCompute, Cycles: 10},
	}}
	r.procs[0].SetWorkload(0, s)
	r.procs[0].Start()
	r.eng.Run()
	if !r.procs[0].Done() {
		t.Fatal("processor not done")
	}
	// vals: [0 (first), 7 (store result), 7 (load result), 0 (compute)]
	if len(s.vals) != 4 || s.vals[2] != 7 {
		t.Fatalf("result chain = %v", s.vals)
	}
	st := r.procs[0].Stats()
	if st.Instructions != 3 || st.Loads != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProcessorOnIdleFires(t *testing.T) {
	r := newProcRig(t, 2, 1, coherence.DefaultParams(2))
	r.procs[0].SetWorkload(0, &script{ops: []proc.Op{{Kind: proc.OpCompute, Cycles: 5}}})
	fired := false
	r.procs[0].OnIdle(func() { fired = true })
	r.procs[0].Start()
	r.eng.Run()
	if !fired {
		t.Fatal("OnIdle never fired")
	}
}

func TestContextSwitchOnRemoteMiss(t *testing.T) {
	// Two contexts: the first blocks on a remote miss; the second must be
	// scheduled in its place (11-cycle switch), per Section 2.
	params := coherence.DefaultParams(2)
	r := newProcRig(t, 2, 2, params)
	remote := &script{ops: []proc.Op{{Kind: proc.OpLoad, Addr: addr(1, 5), Shared: true}}}
	local := &script{ops: []proc.Op{
		{Kind: proc.OpCompute, Cycles: 3},
		{Kind: proc.OpCompute, Cycles: 3},
	}}
	r.procs[0].SetWorkload(0, remote)
	r.procs[0].SetWorkload(1, local)
	r.procs[0].Start()
	r.eng.Run()
	st := r.procs[0].Stats()
	if st.ContextSwitches == 0 {
		t.Fatal("no context switch on a remote miss with a ready context")
	}
}

func TestNoContextSwitchOnHit(t *testing.T) {
	params := coherence.DefaultParams(2)
	r := newProcRig(t, 2, 2, params)
	// Both contexts do purely local work: private store then hits.
	a := &script{ops: []proc.Op{
		{Kind: proc.OpStore, Addr: addr(0, 1), Value: 1, Shared: true},
		{Kind: proc.OpLoad, Addr: addr(0, 1), Shared: true},
		{Kind: proc.OpLoad, Addr: addr(0, 1), Shared: true},
	}}
	b := &script{ops: []proc.Op{{Kind: proc.OpCompute, Cycles: 2}}}
	r.procs[0].SetWorkload(0, a)
	r.procs[0].SetWorkload(1, b)
	r.procs[0].Start()
	r.eng.Run()
	st := r.procs[0].Stats()
	// Exactly one switch at most (to run context 1 after 0 finishes).
	if st.ContextSwitches > 1 {
		t.Fatalf("switches = %d on local-only work, want <= 1", st.ContextSwitches)
	}
}

func TestSingleContextNeverSwitches(t *testing.T) {
	r := newProcRig(t, 2, 1, coherence.DefaultParams(2))
	s := &script{ops: []proc.Op{
		{Kind: proc.OpLoad, Addr: addr(1, 5), Shared: true}, // remote miss
		{Kind: proc.OpCompute, Cycles: 2},
	}}
	r.procs[0].SetWorkload(0, s)
	r.procs[0].Start()
	r.eng.Run()
	if got := r.procs[0].Stats().ContextSwitches; got != 0 {
		t.Fatalf("switches = %d with one context", got)
	}
	if r.procs[0].Stats().Stalls == 0 {
		t.Fatal("remote miss with one context did not stall")
	}
}

func TestTrapServiceChargesProcessor(t *testing.T) {
	// Node 0 is home to a block whose pointer array overflows; its
	// processor must be charged TrapEntry + TrapService cycles per trap.
	params := coherence.DefaultParams(4)
	params.Scheme = coherence.LimitLESS
	params.Pointers = 1
	r := newProcRig(t, 4, 1, params)
	// Processors 1..3 each read node 0's block: third/second read overflows.
	for id := 1; id < 4; id++ {
		r.procs[id].SetWorkload(0, &script{ops: []proc.Op{
			{Kind: proc.OpLoad, Addr: addr(0, 2), Shared: true},
			{Kind: proc.OpCompute, Cycles: 50},
		}})
	}
	r.procs[0].SetWorkload(0, &script{ops: []proc.Op{{Kind: proc.OpCompute, Cycles: 400}}})
	for _, p := range r.procs {
		p.Start()
	}
	r.eng.Run()
	st := r.procs[0].Stats()
	if st.TrapsServiced == 0 {
		t.Fatal("home processor serviced no traps")
	}
	wantPer := params.Timing.TrapEntry + params.Timing.TrapService
	if st.TrapCycles != sim.Time(st.TrapsServiced)*wantPer {
		t.Fatalf("trap cycles = %d for %d traps, want %d each", st.TrapCycles, st.TrapsServiced, wantPer)
	}
	mcStats := r.mcs[0].Stats()
	if mcStats.Traps != st.TrapsServiced {
		t.Fatalf("controller forwarded %d, processor serviced %d", mcStats.Traps, st.TrapsServiced)
	}
}

func TestRMWThroughProcessor(t *testing.T) {
	r := newProcRig(t, 2, 1, coherence.DefaultParams(2))
	s := &script{ops: []proc.Op{
		{Kind: proc.OpStore, Addr: addr(1, 3), Value: 10, Shared: true},
		{Kind: proc.OpRMW, Addr: addr(1, 3), Shared: true, Modify: func(old uint64) uint64 { return old * 2 }},
		{Kind: proc.OpLoad, Addr: addr(1, 3), Shared: true},
	}}
	r.procs[0].SetWorkload(0, s)
	r.procs[0].Start()
	r.eng.Run()
	// vals[2] is the RMW's old value (10); vals[3] the final load (20).
	if s.vals[2] != 10 || s.vals[3] != 20 {
		t.Fatalf("RMW chain = %v, want old=10 then 20", s.vals)
	}
}

func TestWorkloadFuncAdapter(t *testing.T) {
	calls := 0
	wl := proc.WorkloadFunc(func(prev uint64) (proc.Op, bool) {
		calls++
		if calls > 2 {
			return proc.Op{}, false
		}
		return proc.Op{Kind: proc.OpCompute, Cycles: 1}, true
	})
	r := newProcRig(t, 2, 1, coherence.DefaultParams(2))
	r.procs[0].SetWorkload(0, wl)
	r.procs[0].Start()
	r.eng.Run()
	if calls != 3 {
		t.Fatalf("workload called %d times, want 3", calls)
	}
}

func TestSetWorkloadOnLiveContextPanics(t *testing.T) {
	r := newProcRig(t, 2, 1, coherence.DefaultParams(2))
	r.procs[0].SetWorkload(0, &script{ops: []proc.Op{{Kind: proc.OpCompute, Cycles: 100}}})
	defer func() {
		if recover() == nil {
			t.Error("SetWorkload on a live context did not panic")
		}
	}()
	r.procs[0].SetWorkload(0, &script{})
}

func TestNewProcessorRejectsZeroContexts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with 0 contexts did not panic")
		}
	}()
	proc.New(sim.New(), nil, coherence.DefaultTiming(), 0)
}

func TestKindStrings(t *testing.T) {
	cases := map[proc.Kind]string{
		proc.OpLoad:    "load",
		proc.OpStore:   "store",
		proc.OpCompute: "compute",
		proc.OpRMW:     "rmw",
		proc.Kind(99):  "Kind(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestLongComputeDoesNotBlockTraps(t *testing.T) {
	// A processor in the middle of long local work must still service a
	// protocol trap within a compute slice plus the trap cost — the
	// paper's synchronous IPI traps (Section 4.2).
	params := coherence.DefaultParams(4)
	params.Scheme = coherence.LimitLESS
	params.Pointers = 1
	r := newProcRig(t, 4, 1, params)
	// Node 0 computes for a long time; nodes 1-3 read its block, forcing
	// an overflow trap that node 0's processor must service promptly.
	r.procs[0].SetWorkload(0, &script{ops: []proc.Op{{Kind: proc.OpCompute, Cycles: 5000}}})
	for id := 1; id < 4; id++ {
		id := id
		r.procs[id].SetWorkload(0, &script{ops: []proc.Op{
			{Kind: proc.OpCompute, Cycles: sim.Time(id) * 40},
			{Kind: proc.OpLoad, Addr: addr(0, 2), Shared: true},
		}})
	}
	var trapDone sim.Time
	for _, p := range r.procs {
		p.Start()
	}
	// Run and find when the overflowing reader (node 2, the second reader)
	// completed: well before node 0's 5000-cycle compute ends.
	r.eng.Run()
	trapDone = r.eng.Now()
	st := r.procs[0].Stats()
	if st.TrapsServiced == 0 {
		t.Fatal("no traps serviced")
	}
	// The whole run (including the 5000-cycle compute) ends around 5000;
	// the reads must NOT have pushed it far beyond, proving they did not
	// wait for the compute to finish.
	if trapDone > 5400 {
		t.Fatalf("run ended at %d; traps waited for the long compute", trapDone)
	}
}

// recordingWL is a script that also records the engine time of every Next
// call — i.e. when each operation's result came back to the pipeline.
type recordingWL struct {
	eng   *sim.Engine
	ops   []proc.Op
	i     int
	times []sim.Time
}

func (w *recordingWL) Next(prev uint64) (proc.Op, bool) {
	w.times = append(w.times, w.eng.Now())
	if w.i >= len(w.ops) {
		return proc.Op{}, false
	}
	op := w.ops[w.i]
	w.i++
	return op, true
}

// longCompute is the home node's workload in the trap-boundary scenario: a
// 5000-cycle compute starting at cycle 0 (slice boundaries at multiples of
// the 16-cycle compute slice).
func longCompute() proc.Workload {
	return &script{ops: []proc.Op{{Kind: proc.OpCompute, Cycles: 5000}}}
}

// runTrapBoundary drives the trap-interleave scenario under one execution
// mode: node 0 runs home (long local work), node 1 takes the block's only
// hardware pointer, and node 2 — after delay cycles of local work — reads
// the same block, overflowing the directory and trapping node 0's
// processor mid-work. It returns the run's end time, the cycle node 2's
// overflowing load completed, and node 0's serviced-trap count.
func runTrapBoundary(t *testing.T, mode proc.Mode, delay sim.Time, home proc.Workload) (end, loadDone sim.Time, traps uint64) {
	t.Helper()
	params := coherence.DefaultParams(4)
	params.Scheme = coherence.LimitLESS
	params.Pointers = 1
	r := newProcRig(t, 4, 1, params)
	for _, p := range r.procs {
		p.SetMode(mode)
	}
	r.procs[0].SetWorkload(0, home)
	r.procs[1].SetWorkload(0, &script{ops: []proc.Op{
		{Kind: proc.OpLoad, Addr: addr(0, 2), Shared: true},
	}})
	rec := &recordingWL{eng: r.eng, ops: []proc.Op{
		{Kind: proc.OpCompute, Cycles: delay},
		{Kind: proc.OpLoad, Addr: addr(0, 2), Shared: true},
	}}
	r.procs[2].SetWorkload(0, rec)
	for _, p := range r.procs {
		p.Start()
	}
	r.eng.Run()
	if len(rec.times) == 0 {
		t.Fatal("overflowing reader never ran")
	}
	return r.eng.Now(), rec.times[len(rec.times)-1], r.procs[0].Stats().TrapsServiced
}

// TestTrapClaimsNextSliceBoundary pins the synchronous-trap interleaving
// contract in BOTH execution modes: a protocol trap arriving mid-compute
// claims the pipeline at the next instruction-slice boundary — never
// mid-slice, never deferred to the end of the compute. Two observables
// capture it exactly:
//
//   - The overflowing reader's load-completion time is quantized to the
//     16-cycle compute-slice grid: sweeping the trap packet's arrival
//     across a slice leaves the completion unchanged (the trap waits for
//     the boundary), and moving it into the next slice shifts the
//     completion by exactly one slice.
//   - The run ends at 5000 + TrapEntry + TrapService: the trap's cost is
//     serialized into the compute (which must finish all 5000 cycles),
//     and nothing waits for the compute to end.
//
// Fused execution threads this path through parked pends instead of
// events, so every observable must also be bit-identical across modes.
func TestTrapClaimsNextSliceBoundary(t *testing.T) {
	params := coherence.DefaultParams(4)
	wantEnd := 5000 + params.Timing.TrapEntry + params.Timing.TrapService
	// Arrival-delay sweep: 34-46 land in one compute slice of the home
	// node's 16-cycle grid; 30 hits the slice before, 50 the one after.
	wantDone := map[sim.Time]sim.Time{30: 114, 34: 130, 38: 130, 42: 130, 46: 130, 50: 146}
	for _, mode := range []proc.Mode{proc.ModeFused, proc.ModeEvent} {
		for d, want := range wantDone {
			end, done, traps := runTrapBoundary(t, mode, d, longCompute())
			if traps != 1 {
				t.Fatalf("mode=%v delay=%d: %d traps serviced, want 1", mode, d, traps)
			}
			if end != wantEnd {
				t.Errorf("mode=%v delay=%d: run ended at %d, want %d (compute + trap cost)",
					mode, d, end, wantEnd)
			}
			if done != want {
				t.Errorf("mode=%v delay=%d: overflowing load completed at %d, want %d (slice-boundary grid)",
					mode, d, done, want)
			}
		}
	}
}
