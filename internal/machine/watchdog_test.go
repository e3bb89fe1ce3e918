package machine

import (
	"strings"
	"testing"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/fault"
	"limitless/internal/workload"
)

// wedgeMachine builds a machine whose first remote load can never complete:
// the block's home entry is pre-interlocked (Trans-In-Progress) with no
// software handler ever going to release it, so the requester bounces
// BUSY/retry forever — a livelock with steady event traffic and zero
// forward progress.
func wedgeMachine(t *testing.T, shards int) (*Machine, directory.Addr) {
	t.Helper()
	params := coherence.DefaultParams(16)
	params.Scheme = coherence.FullMap
	cfg := Config{
		Width: 4, Height: 4, Contexts: 1, Params: params,
		Shards:       shards,
		ShardWorkers: shards,
		Watchdog:     20_000,
	}
	m := New(cfg)
	addr := Block(0, 1)
	m.Nodes[0].MC.Dir().Entry(addr).Meta = directory.TransInProgress
	m.SetWorkload(1, 0, workload.NewThread(func(th *workload.Thread) {
		th.Load(addr, func(_ uint64, th *workload.Thread) {})
	}))
	return m, addr
}

func TestWatchdogHaltsWedgedRun(t *testing.T) {
	for _, shards := range []int{0, 2} {
		m, addr := wedgeMachine(t, shards)
		res := m.Run() // must terminate, not spin or panic
		d := m.Diagnostic()
		if d == nil {
			t.Fatalf("shards=%d: wedged run finished without a diagnostic (cycles=%d)", shards, res.Cycles)
		}
		if !strings.Contains(d.Reason, "watchdog") {
			t.Errorf("shards=%d: reason %q does not name the watchdog", shards, d.Reason)
		}
		if len(d.Blocked) != 1 || d.Blocked[0].Node != 1 || d.Blocked[0].Addr != addr {
			t.Errorf("shards=%d: blocked ops = %+v, want node 1 on %#x", shards, d.Blocked, uint64(addr))
		}
		if d.Blocked[0].Type != coherence.RREQ {
			t.Errorf("shards=%d: blocked op type = %v, want RREQ", shards, d.Blocked[0].Type)
		}
		if len(d.Entries) != 1 || d.Entries[0].Meta != directory.TransInProgress.String() {
			t.Errorf("shards=%d: entries = %+v, want one Trans-In-Progress entry", shards, d.Entries)
		}
		if res.Coherence.Busies == 0 || res.Coherence.Retries == 0 {
			t.Errorf("shards=%d: expected a BUSY/retry storm, got busies=%d retries=%d",
				shards, res.Coherence.Busies, res.Coherence.Retries)
		}
		// The dump must render all its sections.
		s := d.String()
		for _, want := range []string{"simulation halted", "blocked operations: 1", "non-quiescent directory entries: 1"} {
			if !strings.Contains(s, want) {
				t.Errorf("shards=%d: diagnostic dump missing %q:\n%s", shards, want, s)
			}
		}
	}
}

func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	params := coherence.DefaultParams(16)
	cfg := Config{Width: 4, Height: 4, Contexts: 1, Params: params, Watchdog: 20_000}
	m := New(cfg)
	addr := Block(0, 1)
	m.SetWorkload(1, 0, workload.NewThread(func(th *workload.Thread) {
		th.Store(addr, 7, func(_ uint64, th *workload.Thread) {
			th.Load(addr, func(v uint64, th *workload.Thread) {
				if v != 7 {
					t.Errorf("load = %d, want 7", v)
				}
			})
		})
	}))
	res := m.Run()
	if d := m.Diagnostic(); d != nil {
		t.Fatalf("healthy run produced a diagnostic:\n%s", d)
	}
	if res.Violations != 0 {
		t.Errorf("healthy run recorded %d violations", res.Violations)
	}
}

// TestRecorderConvertsDispatchPanic proves the graceful-failure path: a
// protocol-impossible message that would panic a bare machine is recorded
// as a violation and dropped when a recorder is installed.
func TestRecorderConvertsDispatchPanic(t *testing.T) {
	params := coherence.DefaultParams(16)
	cfg := Config{Width: 4, Height: 4, Contexts: 1, Params: params, Watchdog: 20_000}
	m := New(cfg)
	// An unsolicited ACKC against a quiescent Read-Only entry has no
	// transaction to count against — a dispatch-path violation.
	addr := Block(0, 2)
	m.Eng.At(0, func() {
		m.Nodes[0].MC.Handle(3, &coherence.Msg{Type: coherence.ACKC, Addr: addr, Next: -1})
	})
	m.SetWorkload(1, 0, workload.NewThread(func(th *workload.Thread) {
		th.Load(Block(0, 3), func(_ uint64, th *workload.Thread) {})
	}))
	res := m.Run()
	if m.Diagnostic() != nil {
		t.Fatalf("run should still complete: %s", m.Diagnostic())
	}
	if res.Violations != 1 {
		t.Fatalf("violations = %d, want 1", res.Violations)
	}
	v := m.Recorder().Violations()[0]
	if v.Kind != "memctrl-dispatch" || v.Node != 0 {
		t.Errorf("violation = %+v, want memctrl-dispatch at node 0", v)
	}
}

// TestFaultPlanZeroRateInert: a plan with a seed but all rates zero is nil
// and must not change machine behavior (guards the bit-identity claim at
// the machine level; the root-level test pins exact cycle counts).
func TestFaultPlanZeroRateInert(t *testing.T) {
	cfgOf, _ := fault.Parse("7:")
	if p := fault.New(cfgOf); p != nil {
		t.Fatalf("zero-rate plan should be nil, got %+v", p)
	}
}
