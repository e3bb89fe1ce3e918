package proc_test

import (
	"fmt"
	"strings"
	"testing"

	"limitless/internal/coherence"
	"limitless/internal/proc"
	"limitless/internal/sim"
)

// runOffQueue runs a scenario on the rig, where spins may leave the event
// queue, in steps of a few cycles — each RunUntil settles the off-queue
// spins through its limit — and reports whether a spin was ever seen off
// the queue.
func runOffQueue(t *testing.T, nodes, contexts int, params coherence.Params, setup func(r *procRig)) (outcome, bool) {
	t.Helper()
	r := newProcRig(t, nodes, contexts, params)
	setup(r)
	for _, p := range r.procs {
		p.Start()
	}
	off := false
	for limit := sim.Time(0); ; limit += 7 {
		r.eng.RunUntil(limit)
		done := true
		for _, p := range r.procs {
			off = off || p.OffQueue()
			done = done && p.Done()
		}
		if done {
			break
		}
		if limit > 1_000_000 {
			t.Fatal("processors did not finish")
		}
	}
	o := outcome{end: r.eng.Now(), events: r.eng.Processed()}
	for _, p := range r.procs {
		o.stats = append(o.stats, p.Stats())
	}
	return o, off
}

// pollLoop expands every spin-wait of inner back into the loop a workload
// would otherwise run through Next: a plain load, then — while Until
// rejects the loaded value — a backoff compute and the load again, each
// one Next call. A plain load is no spin to the processor, so every step
// of the loop stays on the event queue.
type pollLoop struct {
	inner     proc.Workload
	spin      proc.Op // the spin load being polled; Until is nil outside a spin
	backedOff bool    // the last op returned was the backoff
}

func (l *pollLoop) Next(prev uint64) (proc.Op, bool) {
	if l.spin.Until != nil {
		switch {
		case l.backedOff:
			l.backedOff = false
			return l.poll(), true
		case !l.spin.Until(prev):
			l.backedOff = true
			return proc.Op{Kind: proc.OpCompute, Cycles: l.spin.Cycles}, true
		}
		l.spin = proc.Op{}
	}
	op, ok := l.inner.Next(prev)
	if ok && op.Until != nil {
		l.spin = op
		return l.poll(), true
	}
	return op, ok
}

// poll is the spin load without its spin fields: an ordinary OpLoad.
func (l *pollLoop) poll() proc.Op {
	return proc.Op{Kind: proc.OpLoad, Addr: l.spin.Addr, Shared: l.spin.Shared}
}

// TestSpinOffQueueMatchesQueued: spinners with assorted backoffs wait for
// a flag a producer sets late, on one and two contexts, and a LimitLESS_1
// home spins while overflow traps land on it. The reference runs every
// spin as the poll loop a workload would run through Next, where every
// step stays queued. With spins free to leave the queue, run to the end or
// in short RunUntil steps, every run must match the reference — end time,
// Events, every processor counter — and a spin must really have left the
// queue.
func TestSpinOffQueueMatchesQueued(t *testing.T) {
	flag := addr(0, 4)
	producer := func(r *procRig, wl func(...proc.Op) proc.Workload, backoffs []sim.Time) {
		r.procs[0].SetWorkload(0, wl(
			proc.Op{Kind: proc.OpCompute, Cycles: 300},
			proc.Op{Kind: proc.OpStore, Addr: flag, Value: 1, Shared: true},
		))
		for id, b := range backoffs {
			r.procs[id+1].SetWorkload(0, wl(
				proc.Op{Kind: proc.OpLoad, Addr: flag, Shared: true, Cycles: b,
					Until: func(v uint64) bool { return v == 1 }},
				proc.Op{Kind: proc.OpCompute, Cycles: 10},
			))
		}
	}
	limitless1 := coherence.DefaultParams(4)
	limitless1.Pointers = 1
	block := addr(0, 2)
	trapped := func(r *procRig, wl func(...proc.Op) proc.Workload) {
		// The home spins on a flag it caches while readers overflow its one
		// hardware pointer, so LimitLESS traps claim its pipeline mid-spin,
		// until the last reader sets the flag.
		r.procs[0].SetWorkload(0, wl(
			proc.Op{Kind: proc.OpStore, Addr: flag, Value: 2, Shared: true},
			proc.Op{Kind: proc.OpLoad, Addr: flag, Shared: true, Cycles: 12,
				Until: func(v uint64) bool { return v == 1 }},
		))
		for id := 1; id < 4; id++ {
			ops := []proc.Op{
				{Kind: proc.OpCompute, Cycles: sim.Time(30 * id)},
				{Kind: proc.OpLoad, Addr: block, Shared: true},
			}
			if id == 3 {
				ops = append(ops, proc.Op{Kind: proc.OpCompute, Cycles: 200},
					proc.Op{Kind: proc.OpStore, Addr: flag, Value: 1, Shared: true})
			}
			r.procs[id].SetWorkload(0, wl(ops...))
		}
	}
	cases := []struct {
		name     string
		contexts int
		params   coherence.Params
		setup    func(r *procRig, wl func(...proc.Op) proc.Workload)
	}{
		{"backoffs/1ctx", 1, coherence.DefaultParams(4), func(r *procRig, wl func(...proc.Op) proc.Workload) {
			producer(r, wl, []sim.Time{0, 5, 40})
		}},
		{"backoffs/2ctx", 2, coherence.DefaultParams(4), func(r *procRig, wl func(...proc.Op) proc.Workload) {
			producer(r, wl, []sim.Time{12, 40, 3})
		}},
		{"traps/limitless1", 1, limitless1, trapped},
	}
	spins := func(ops ...proc.Op) proc.Workload { return &script{ops: ops} }
	loops := func(ops ...proc.Op) proc.Workload { return &pollLoop{inner: &script{ops: ops}} }
	for _, c := range cases {
		want := runScenario(t, 4, c.contexts, c.params, func(r *procRig) { c.setup(r, loops) })
		whole := runScenario(t, 4, c.contexts, c.params, func(r *procRig) { c.setup(r, spins) })
		got, off := runOffQueue(t, 4, c.contexts, c.params, func(r *procRig) { c.setup(r, spins) })
		if fmt.Sprint(whole) != fmt.Sprint(want) {
			t.Errorf("%s: off-queue spins differ from the queued poll loop:\noff-queue: %+v\nqueued:    %+v", c.name, whole, want)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: off-queue spins run in steps differ from the queued poll loop:\noff-queue: %+v\nqueued:    %+v", c.name, got, want)
		}
		if !off {
			t.Errorf("%s: no spin ever left the queue", c.name)
		}
	}
}

// staleSpin builds a rig whose node 0 stores 9 to a flag it homes and then
// spins until until holds, and starts it.
func staleSpin(t *testing.T, until func(uint64) bool) *procRig {
	t.Helper()
	r := newProcRig(t, 2, 1, coherence.DefaultParams(2))
	flag := addr(0, 1)
	r.procs[0].SetWorkload(0, &script{ops: []proc.Op{
		{Kind: proc.OpStore, Addr: flag, Value: 9, Shared: true},
		{Kind: proc.OpLoad, Addr: flag, Shared: true, Cycles: 4, Until: until},
	}})
	r.procs[0].Start()
	return r
}

// offQueueSpin is staleSpin on a flag that never reads 1, run to cycle 200
// and checked to have left the queue.
func offQueueSpin(t *testing.T) *procRig {
	t.Helper()
	r := staleSpin(t, func(v uint64) bool { return v == 1 })
	r.eng.RunUntil(200)
	if !r.procs[0].OffQueue() {
		t.Fatal("the stale spin did not leave the queue")
	}
	return r
}

// mustPanic runs fn and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, name, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s: no panic", name)
			return
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("%s: panic %q does not mention %q", name, msg, want)
		}
	}()
	fn()
}

// TestSpinOffQueueTrapGuard: a protocol trap raised at a node whose spin
// is off the queue means the event that raised it did not wake the spin;
// the processor refuses it.
func TestSpinOffQueueTrapGuard(t *testing.T) {
	r := offQueueSpin(t)
	mustPanic(t, "trap", "did not wake", r.procs[0].ProtocolTrap)
}

// TestSpinOffQueueLineGuard: a message reaching the cache controller of a
// node whose spin is off the queue — the start of every path that changes
// a cache line — panics.
func TestSpinOffQueueLineGuard(t *testing.T) {
	r := offQueueSpin(t)
	mustPanic(t, "INV", "did not wake", func() {
		r.ccs[0].HandleMem(1, &coherence.Msg{Type: coherence.INV, Addr: addr(0, 1), Next: -1})
	})
}

// TestSpinOffQueueMissGuard: a settled poll that misses — the line was
// dropped behind the off-queue spin's back — panics instead of settling.
func TestSpinOffQueueMissGuard(t *testing.T) {
	r := offQueueSpin(t)
	r.ccs[0].Cache().Invalidate(addr(0, 1))
	mustPanic(t, "miss", "did not wake", func() { r.eng.RunUntil(400) })
}

// TestSpinOffQueuePredicateGuard: a settled poll that satisfies its
// predicate panics, whether it settles step by step or in a closed-form
// run of whole poll periods, which evaluates the predicate once; either
// way the panic comes at that poll, before any later one settles. A pure
// predicate cannot do that, since the polled value cannot change while
// the spin is off the queue; this one counts its calls, and holds from
// call n+1 on. The poll that leaves the queue calls it at its issue, its
// completion settles step by step with the second call, and the next
// poll's issue starts a closed-form run (the pipeline is free) with the
// third.
func TestSpinOffQueuePredicateGuard(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
	}{{"step", 1}, {"closed form", 2}} {
		calls := 0
		r := staleSpin(t, func(uint64) bool {
			calls++
			return calls > c.n
		})
		mustPanic(t, c.name, "did not wake", func() { r.eng.RunUntil(200) })
		if calls != c.n+1 {
			t.Errorf("%s: predicate called %d times, want %d", c.name, calls, c.n+1)
		}
		if loads := r.procs[0].Stats().Loads; loads != uint64(c.n) {
			t.Errorf("%s: %d polls settled, want %d: the guard must stop the spin at the poll whose predicate held", c.name, loads, c.n)
		}
	}
}
