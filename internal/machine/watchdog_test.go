package machine

import (
	"fmt"
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
func wedgeMachine(t *testing.T) (*Machine, directory.Addr) {
	t.Helper()
	params := coherence.DefaultParams(16)
	params.Scheme = coherence.FullMap
	m := New(Config{Width: 4, Height: 4, Contexts: 1, Params: params, Watchdog: 20_000})
	addr := coherence.BlockAt(0, 1)
	m.Nodes[0].MC.Dir().Entry(addr).Meta = directory.TransInProgress
	m.SetWorkload(1, 0, workload.NewThread(func(th *workload.Thread) {
		th.Load(addr, func(_ uint64, th *workload.Thread) {})
	}))
	return m, addr
}

func TestWatchdogHaltsWedgedRun(t *testing.T) {
	m, addr := wedgeMachine(t)
	res := m.Run() // must terminate, not spin or panic
	d := m.Diagnostic()
	if d == nil {
		t.Fatalf("wedged run finished without a diagnostic (cycles=%d)", res.Cycles)
	}
	if !strings.Contains(d.Reason, "watchdog") {
		t.Errorf("reason %q does not name the watchdog", d.Reason)
	}
	if len(d.Blocked) != 1 || d.Blocked[0].Node != 1 || d.Blocked[0].Addr != addr {
		t.Errorf("blocked ops = %+v, want node 1 on %#x", d.Blocked, uint64(addr))
	}
	if d.Blocked[0].Type != coherence.RREQ {
		t.Errorf("blocked op type = %v, want RREQ", d.Blocked[0].Type)
	}
	if len(d.Entries) != 1 || d.Entries[0].Meta != directory.TransInProgress.String() {
		t.Errorf("entries = %+v, want one Trans-In-Progress entry", d.Entries)
	}
	if res.Coherence.Busies == 0 || res.Coherence.Retries == 0 {
		t.Errorf("expected a BUSY/retry storm, got busies=%d retries=%d",
			res.Coherence.Busies, res.Coherence.Retries)
	}
	// The dump must render all its sections.
	s := d.String()
	for _, want := range []string{"simulation halted", "blocked operations: 1", "non-quiescent directory entries: 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("diagnostic dump missing %q:\n%s", want, s)
		}
	}
}

func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	params := coherence.DefaultParams(16)
	cfg := Config{Width: 4, Height: 4, Contexts: 1, Params: params, Watchdog: 20_000}
	m := New(cfg)
	addr := coherence.BlockAt(0, 1)
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
	addr := coherence.BlockAt(0, 2)
	m.Eng.At(0, func() {
		m.Nodes[0].MC.Handle(3, &coherence.Msg{Type: coherence.ACKC, Addr: addr, Next: -1})
	})
	m.SetWorkload(1, 0, workload.NewThread(func(th *workload.Thread) {
		th.Load(coherence.BlockAt(0, 3), func(_ uint64, th *workload.Thread) {})
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

// spinMachine builds a machine whose node 1 spins on a flag it homes and
// nobody ever writes: every poll after the first hits in its cache, so the
// run is busy with committed loads and makes no forward progress at all.
// With two contexts, the second holds one long compute that never gets
// the pipeline — the spin never misses remotely, so it never yields — but
// stays live, which keeps every poll of the spin on the event queue.
func spinMachine(contexts int) (*Machine, directory.Addr) {
	m := New(Config{Width: 4, Height: 4, Contexts: contexts, Params: coherence.DefaultParams(16), Watchdog: 20_000})
	flag := coherence.BlockAt(1, 1)
	m.SetWorkload(1, 0, workload.NewThread(func(th *workload.Thread) {
		th.SpinUntil(flag, func(v uint64) bool { return v == 1 }, 12,
			func(_ uint64, th *workload.Thread) {})
	}))
	if contexts == 2 {
		m.SetWorkload(1, 1, workload.NewThread(func(th *workload.Thread) {
			th.Compute(10_000_000, func(_ uint64, th *workload.Thread) {})
		}))
	}
	return m, flag
}

// TestWatchdogHaltsStaleSpin: polls that fail their spin predicate are not
// progress, so a spin on a flag that never changes trips the watchdog one
// interval into the run instead of running to the cycle limit (or, under
// Run, forever), and the diagnostic names the spinning context. On one
// context the spin is off the event queue when the watchdog trips; it must
// trip on the same cycle, with the same Events and PendingEvents, as with
// a second live context, where every poll is queued.
func TestWatchdogHaltsStaleSpin(t *testing.T) {
	var trips []string
	for _, contexts := range []int{1, 2} {
		m, flag := spinMachine(contexts)
		res, done := m.RunUntil(1_000_000)
		d := m.Diagnostic()
		if d == nil {
			t.Fatalf("contexts=%d: stale spin ran to cycle %d (done=%v) without a diagnostic", contexts, res.Cycles, done)
		}
		trips = append(trips, fmt.Sprintf("cycle %d, %d events, %d pending", res.Cycles, res.Events, d.PendingEvents))
		if off := m.Nodes[1].Proc.OffQueue(); off != (contexts == 1) {
			t.Errorf("contexts=%d: spin off the event queue = %v at the trip", contexts, off)
		}
		if done || res.Cycles >= 2*20_000 {
			t.Errorf("contexts=%d: halted at cycle %d (done=%v), want a trip within two watchdog intervals", contexts, res.Cycles, done)
		}
		if !strings.Contains(d.Reason, "watchdog") {
			t.Errorf("contexts=%d: reason %q does not name the watchdog", contexts, d.Reason)
		}
		if len(d.Blocked) != 0 {
			t.Errorf("contexts=%d: blocked ops = %+v, want none (the spin's polls all commit)", contexts, d.Blocked)
		}
		if len(d.Spinning) != 1 {
			t.Fatalf("contexts=%d: spinning contexts = %+v, want node 1 on %#x", contexts, d.Spinning, uint64(flag))
		}
		if s := d.Spinning[0]; s.Node != 1 || s.Addr != flag || s.Last != 0 {
			t.Errorf("contexts=%d: spinning context = %+v, want node 1 on %#x, last value 0", contexts, s, uint64(flag))
		}
		if s := d.String(); !strings.Contains(s, "spinning contexts: 1") {
			t.Errorf("contexts=%d: diagnostic dump does not list the spinning context:\n%s", contexts, s)
		}
	}
	if trips[0] != trips[1] {
		t.Errorf("the trip differs between an off-queue spin (%s) and a queued one (%s)", trips[0], trips[1])
	}
}

// staleSpinMachine is spinMachine without a watchdog: a run nothing but a
// stale spin keeps alive, with a violation recorder when record is set
// (a fault plan installs one).
func staleSpinMachine(record bool) *Machine {
	cfg := Config{Width: 4, Height: 4, Params: coherence.DefaultParams(16)}
	if record {
		fc, err := fault.Parse("7:delay=0.05")
		if err != nil {
			panic(err)
		}
		cfg.Faults = fault.New(fc)
	}
	m := New(cfg)
	m.SetWorkload(1, 0, workload.NewThread(func(th *workload.Thread) {
		th.SpinUntil(coherence.BlockAt(0, 1), func(v uint64) bool { return v == 1 }, 12,
			func(_ uint64, th *workload.Thread) {})
	}))
	return m
}

// TestStaleSpinDeadlockPanics: with no watchdog and no cycle limit, a run
// whose queue drains with only an off-queue spin left can never finish;
// Run reports it as the deadlock it is instead of looping forever.
func TestStaleSpinDeadlockPanics(t *testing.T) {
	m := staleSpinMachine(false)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run returned on a stale spin without reporting a deadlock")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "node 1 still spinning") {
			t.Errorf("panic %q does not report node 1's spin as a deadlock", msg)
		}
	}()
	m.Run()
}

// TestStaleSpinDeadlockDiagnostic: with a violation recorder the same
// deadlock ends the run with a Diagnostic that lists the spinning context,
// its spin counted as the one pending event.
func TestStaleSpinDeadlockDiagnostic(t *testing.T) {
	m := staleSpinMachine(true)
	m.Run()
	d := m.Diagnostic()
	if d == nil {
		t.Fatal("stale spin ended without a diagnostic")
	}
	if !strings.Contains(d.Reason, "deadlock") || !strings.Contains(d.Reason, "node 1 still spinning") {
		t.Errorf("reason %q does not report node 1's spin as a deadlock", d.Reason)
	}
	if len(d.Spinning) != 1 || d.Spinning[0].Node != 1 || d.Spinning[0].Addr != coherence.BlockAt(0, 1) {
		t.Errorf("spinning contexts = %+v, want node 1 on %#x", d.Spinning, uint64(coherence.BlockAt(0, 1)))
	}
	if d.PendingEvents != 1 {
		t.Errorf("PendingEvents = %d, want 1 (the spin's next step)", d.PendingEvents)
	}
}
