// Package sim provides the deterministic discrete-event simulation engine
// that underlies the Alewife machine model.
//
// The engine maintains pending events ordered by (time, sequence number).
// Because ties are broken by the order in which events were scheduled, a
// simulation run is fully deterministic: the same configuration always
// produces the same event interleaving and therefore the same cycle
// counts. Determinism is what lets the test suite assert exact execution
// times and lets the protocol model checker replay interleavings.
//
// The engine is built for throughput: the default scheduler is a timing
// wheel — a ring of per-cycle buckets sized to the near-future horizon
// with an overflow tier beyond it — so scheduling and dispatch are O(1),
// each cycle's bucket drains in one pass, and the clock jumps straight
// over dead cycles (see wheel.go; a binary-heap scheduler remains
// selectable as the cross-check oracle). Every event has one life: it is
// taken from a free list, queued once, fired once and released back to
// the list, so steady-state scheduling performs no heap allocation, and
// the closure-free AtHandler path lets hot callers avoid allocating a
// closure per event as well (At, which takes a closure, is a thin adapter
// over it). Nothing outside the engine holds an event, so nothing can
// cancel or re-queue one. A chain whose steps nothing else reads until a
// known event runs may leave the queue altogether; the engine then
// settles its steps when they are needed (see chain.go).
//
// Time is measured in processor clock cycles (the paper reports all results
// in cycles of the 33 MHz SPARCLE clock).
package sim

import (
	"fmt"
	"math"
	"sync"
)

// Time is a point in simulated time, in processor cycles.
type Time int64

// Forever is a Time later than any reachable simulation time.
const Forever Time = math.MaxInt64

// Handler is the closure-free event callback: hot callers pre-allocate one
// handler per dispatch kind and pass per-event state through arg (a pointer,
// to avoid boxing). Cold paths can keep using At with a closure.
type Handler interface {
	OnEvent(arg any)
}

// Event is a unit of scheduled work. The callback runs at the event's
// deadline with the engine clock already advanced to that deadline. Events
// are pooled and never leave the engine: the scheduling calls return
// nothing, and a fired event is released to the free list (see
// SetPooling).
type Event struct {
	at  Time
	seq uint64
	h   Handler
	arg any
}

// Engine is a deterministic discrete-event scheduler.
//
// The zero value is ready to use (with the timing-wheel scheduler). Engine
// is not safe for concurrent use; one simulation runs on one goroutine.
// Run many engines in parallel for parameter sweeps.
type Engine struct {
	now       Time
	seq       uint64
	wh        wheel
	heap      eventHeap
	useHeap   bool
	queued    int
	processed uint64
	inlined   uint64   // off-queue steps settled (subset of processed)
	free      []*Event // recycled events; see SetPooling
	noPool    bool
	chains    []*Chain   // chains off the queue (chain.go)
	mem       *engineMem // the pool wrapper New drew, reused by Recycle

	// runLimit is the limit of the RunUntil in progress. It starts at the
	// call's limit argument and only ever decreases (Abort), and off-queue
	// chains settle through it when the run returns.
	runLimit Time

	// abort permanently halts event execution (see Abort).
	abort bool

	// hook is the end-of-cycle hook (see SetCycleHook); hookArmed records
	// that it must run before the engine leaves the current cycle.
	hook      func()
	hookArmed bool
}

// New returns an engine with the clock at cycle 0, using the timing-wheel
// scheduler. Call SetScheduler to select the heap fallback. The wheel's
// buckets and the event free list come from a recycled engine when one is
// pooled (see Recycle).
func New() *Engine {
	e := &Engine{}
	if m, _ := memPool.Get().(*engineMem); m != nil {
		e.wh.buckets, e.free, e.chains = m.buckets, m.free, m.chains
		*m = engineMem{}
		e.mem = m
	}
	e.wh.init()
	return e
}

// engineMem is the run-scoped memory an engine hands to the next one: the
// wheel's buckets, with the capacities their slices grew to, the free
// list of recycled events and the emptied list of off-queue chains.
type engineMem struct {
	buckets []wheelBucket
	free    []*Event
	chains  []*Chain
}

var memPool sync.Pool

// Recycle empties the wheel's buckets and hands them, together with the
// event free list, to the pool New draws on. Events still queued and
// chains still off the queue — a run cut off by a cycle limit, a watchdog
// or an abort — are dropped with the engine, and the pooled chain list
// keeps no pointer to a chain. The engine must not be used afterwards; a
// second Recycle does nothing.
func (e *Engine) Recycle() {
	if e.wh.buckets == nil {
		return
	}
	for i := range e.wh.buckets {
		b := &e.wh.buckets[i]
		clear(b.evs)
		b.reset()
	}
	clear(e.chains)
	m := e.mem
	if m == nil {
		m = new(engineMem)
	}
	*m = engineMem{buckets: e.wh.buckets, free: e.free, chains: e.chains[:0]}
	memPool.Put(m)
	e.wh.buckets, e.free, e.chains, e.mem = nil, nil, nil, nil
}

// SetScheduler selects the pending-event data structure. Both schedulers
// fire events in identical (time, sequence) order, so results are
// bit-identical under either; the heap exists as a cross-check oracle and
// fallback. Switch only while the queue is empty — migrating pending
// events between structures is not supported.
func (e *Engine) SetScheduler(k SchedulerKind) {
	if e.queued > 0 {
		panic("sim: SetScheduler with events pending")
	}
	e.useHeap = k == SchedHeap
	if !e.useHeap {
		e.wh.init()
	}
}

// Scheduler returns the active scheduler kind.
func (e *Engine) Scheduler() SchedulerKind {
	if e.useHeap {
		return SchedHeap
	}
	return SchedWheel
}

// SetPooling enables or disables event recycling. Pooling is on by default;
// disabling it makes every schedule allocate a fresh Event, which is useful
// only to cross-check that pooling does not perturb results (it must not —
// event order depends solely on (time, sequence)).
func (e *Engine) SetPooling(on bool) { e.noPool = !on }

// SetCycleHook installs fn as the engine's end-of-cycle hook. The hook is
// not an event: it runs only in a cycle that armed it (ArmCycleHook), once,
// after every event of that cycle — any scheduled into the cycle while it
// runs too — and before the engine executes anything later, or before a
// run whose queue has drained returns. Processed does not count it, and
// the wheel and the heap run it at the same point of the (deadline,
// sequence) order. The hook may schedule events, and anything it
// schedules draws its sequence key after every event allocated during the
// cycle and before any allocated during a later one; this is what lets a
// one-engine network claim a whole cycle's sends in one canonical batch.
func (e *Engine) SetCycleHook(fn func()) { e.hook = fn }

// ArmCycleHook requests one run of the installed end-of-cycle hook at the
// end of the current cycle; arming it again within the cycle changes
// nothing. The engine must have a hook.
func (e *Engine) ArmCycleHook() { e.hookArmed = true }

// runHook disarms and runs the end-of-cycle hook.
func (e *Engine) runHook() {
	e.hookArmed = false
	e.hook()
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far, settled
// off-queue steps included: a settled step is the event it would have
// queued, so the count stays an invariant measure of simulation actions —
// identical whether a spin leaves the queue.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events still queued, plus one for each
// chain off the queue (its next step).
func (e *Engine) Pending() int { return e.queued + len(e.chains) }

// Inlined returns how many of the processed events were off-queue steps
// settled without being queued (see chain.go) — reported by the
// throughput benchmarks as the off-queue share.
func (e *Engine) Inlined() uint64 { return e.inlined }

// NextEventTime returns the deadline of the earliest pending event, the
// next steps of off-queue chains included. ok is false when
// nothing is pending. On the wheel the probe is an O(1) occupancy-bitmap
// scan, which is what lets guarded runs skip dead cycles without touching
// individual events.
func (e *Engine) NextEventTime() (t Time, ok bool) {
	t, ok = e.queueNext()
	for _, c := range e.chains {
		if !ok || c.at < t {
			t, ok = c.at, true
		}
	}
	return t, ok
}

// queueNext returns the deadline of the earliest queued event.
func (e *Engine) queueNext() (Time, bool) {
	if e.useHeap {
		if len(e.heap) == 0 {
			return 0, false
		}
		return e.heap[0].at, true
	}
	return e.wh.next()
}

// allocEvent takes an event from the free list (or the heap allocator) and
// stamps it with deadline t, leaving the sequence key to the caller.
func (e *Engine) allocEvent(t Time) *Event {
	if t < e.now {
		e.pastPanic(t)
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.at = t
	return ev
}

// pastPanic reports an attempt to schedule before the clock. It is out of
// line so that the scheduling fast path stays small.
func (e *Engine) pastPanic(t Time) {
	panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
}

// nextSeq draws the next sequence key. Keys only grow, so ties between
// same-deadline events break in scheduling order.
func (e *Engine) nextSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// enqueue files a stamped event with the active scheduler. An event inside
// the wheel's horizon, the common case, goes straight into its bucket.
func (e *Engine) enqueue(ev *Event) {
	switch {
	case e.useHeap:
		e.heap.push(ev)
	case ev.at-e.wh.base < wheelSpan:
		e.wh.ringInsert(ev)
	default:
		e.wh.schedule(ev)
	}
	e.queued++
}

// release retires a fired event: the callback state is dropped, and the
// object returns to the free list.
func (e *Engine) release(ev *Event) {
	ev.h = nil
	ev.arg = nil
	if !e.noPool {
		e.free = append(e.free, ev)
	}
}

// funcHandler runs the func() an event carries as its argument; it is
// what makes At an adapter over AtHandler. A func value is pointer-shaped,
// so it becomes the argument without allocating.
type funcHandler struct{}

func (funcHandler) OnEvent(arg any) { arg.(func())() }

// At schedules fn to run at absolute cycle t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) { e.AtHandler(t, funcHandler{}, fn) }

// AtHandler schedules h.OnEvent(arg) at absolute cycle t without allocating
// a closure. Pass pointer-shaped args to keep the call allocation-free.
func (e *Engine) AtHandler(t Time, h Handler, arg any) {
	ev := e.allocEvent(t)
	ev.seq = e.nextSeq()
	ev.h = h
	ev.arg = arg
	e.enqueue(ev)
}

// AfterHandler schedules h.OnEvent(arg) delay cycles from now.
func (e *Engine) AfterHandler(delay Time, h Handler, arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.AtHandler(e.now+delay, h, arg)
}

// fire advances the clock to t and executes ev. The event is released
// first, so the callback can immediately schedule into the freed slot.
func (e *Engine) fire(ev *Event, t Time) {
	if ev.at != t {
		panic(fmt.Sprintf("sim: event due at %d fired in cycle %d", ev.at, t))
	}
	e.queued--
	e.now = t
	e.processed++
	h, arg := ev.h, ev.arg
	e.release(ev)
	h.OnEvent(arg)
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// RunUntil executes events with deadlines at or before limit. Events
// scheduled beyond limit stay queued. It returns the time of the last
// executed event (or the unchanged clock when nothing ran). The clock never
// advances past limit. On the wheel, whole per-cycle buckets drain without
// consulting the queue head between events, and the clock jumps directly to
// each next non-empty cycle.
//
// The effective limit is re-read between cycles, so an event callback may
// lower it mid-run with Abort; the cycle being drained always completes.
// Off-queue chains settle through the effective limit before RunUntil
// returns, an aborted run's included (see chain.go).
func (e *Engine) RunUntil(limit Time) Time {
	if e.abort {
		return e.now
	}
	e.runLimit = limit
	if !e.useHeap {
		e.runWheel()
	} else {
		e.runHeap()
	}
	e.settleChains()
	return e.now
}

// runHeap is the heap scheduler's run loop: it fires the heap's earliest
// event until the next deadline is past the run limit, and runs an armed
// end-of-cycle hook exactly where runWheel does.
func (e *Engine) runHeap() {
	for {
		next := Forever
		if len(e.heap) > 0 {
			next = e.heap[0].at
		}
		if e.hookArmed && next > e.now {
			e.runHook()
			continue
		}
		if len(e.heap) == 0 || next > e.runLimit {
			return
		}
		e.fire(e.heap.pop(), next)
	}
}

// Abort permanently stops event execution: the run in progress ends at the
// current cycle boundary (queued events stay queued) and later RunUntil
// calls return immediately. A model calls this from inside an event when
// continuing is pointless — the machine's reliable transport aborts a run
// whose retransmit budget is exhausted, where waiting for the queue to
// drain would hang into the watchdog instead of reporting cleanly.
func (e *Engine) Abort() {
	e.abort = true
	if e.runLimit > e.now {
		e.runLimit = e.now
	}
}
