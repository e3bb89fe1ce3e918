// Package workload provides the synthetic applications driven through the
// simulated Alewife machine: reconstructions of the paper's two
// evaluation programs (the statically scheduled multigrid relaxation of
// Figure 7 and the Weather code of Figures 8–10, with its combining-tree
// barriers, worker-set-2 variables and unoptimized hot-spot variable), a
// synthetic worker-set microbenchmark for validating the Section 3.1
// analytic model, and the extension workloads (migratory data, lock
// contention, producer/consumer) exercised by the Section 6 mechanisms.
//
// Workloads are written in continuation-passing style over Thread, which
// turns nested callbacks into the pull-based proc.Workload interface. The
// style reads like straight-line code with explicit joins, and — unlike a
// goroutine per simulated thread — keeps the simulation deterministic.
package workload

import (
	"limitless/internal/directory"
	"limitless/internal/proc"
	"limitless/internal/sim"
)

// Cont is a continuation: what the thread does after an operation
// completes. v is the operation's result (loaded value, stored value, or
// the old value of an RMW).
type Cont func(v uint64, t *Thread)

// Thread adapts continuation-passing workload code to proc.Workload. Push
// operations with Load/Store/RMW/Compute; each takes the continuation to
// run when the operation's result is available.
type Thread struct {
	// pending is the single-entry fast path: CPS continuations push exactly
	// one operation before Next pops it, so the queue proper is touched only
	// by code that batches several operations up front.
	pending    queued
	hasPending bool
	queue      []queued
	last       Cont
}

type queued struct {
	op   proc.Op
	then Cont
}

// NewThread returns a thread that runs start once and then whatever the
// continuations push.
func NewThread(start func(t *Thread)) *Thread {
	t := &Thread{}
	start(t)
	return t
}

// push appends an operation. The pending slot may only be claimed when the
// whole queue is empty — otherwise the new operation would jump the line.
func (t *Thread) push(op proc.Op, then Cont) {
	if !t.hasPending && len(t.queue) == 0 {
		t.pending = queued{op, then}
		t.hasPending = true
		return
	}
	t.queue = append(t.queue, queued{op, then})
}

// Load reads addr and passes the value to then.
func (t *Thread) Load(addr directory.Addr, then Cont) {
	t.push(proc.Op{Kind: proc.OpLoad, Addr: addr, Shared: true}, then)
}

// LoadPrivate reads addr, marking it private (cacheable even under the
// private-only baseline).
func (t *Thread) LoadPrivate(addr directory.Addr, then Cont) {
	t.push(proc.Op{Kind: proc.OpLoad, Addr: addr, Shared: false}, then)
}

// Store writes value to addr and then continues.
func (t *Thread) Store(addr directory.Addr, value uint64, then Cont) {
	t.push(proc.Op{Kind: proc.OpStore, Addr: addr, Value: value, Shared: true}, then)
}

// StorePrivate writes to a private block.
func (t *Thread) StorePrivate(addr directory.Addr, value uint64, then Cont) {
	t.push(proc.Op{Kind: proc.OpStore, Addr: addr, Value: value, Shared: false}, then)
}

// RMW atomically stores modify(old) to addr; then receives old.
func (t *Thread) RMW(addr directory.Addr, modify func(uint64) uint64, then Cont) {
	t.push(proc.Op{Kind: proc.OpRMW, Addr: addr, Modify: modify, Shared: true}, then)
}

// FetchAdd atomically adds delta to addr; then receives the old value.
func (t *Thread) FetchAdd(addr directory.Addr, delta uint64, then Cont) {
	t.RMW(addr, func(old uint64) uint64 { return old + delta }, then)
}

// Compute spends cycles of local execution.
func (t *Thread) Compute(cycles sim.Time, then Cont) {
	t.push(proc.Op{Kind: proc.OpCompute, Cycles: cycles}, then)
}

// SpinUntil polls addr (with backoff cycles between polls) until
// pred(value) holds, then continues with the satisfying value. It pushes a
// single OpLoad carrying pred as Until and backoff as Cycles; the
// processor runs the poll loop itself (see proc.Op.Until), so a spin-wait
// costs one Next call however many polls it takes. The loop runs to
// completion before any operation queued behind it. pred must be a pure
// function of the polled value while the spin lasts (see proc.Op.Until):
// the processor may evaluate it once for a run of polls that read the same
// value and settle the rest without it.
func (t *Thread) SpinUntil(addr directory.Addr, pred func(uint64) bool, backoff sim.Time, then Cont) {
	t.push(proc.Op{Kind: proc.OpLoad, Addr: addr, Shared: true, Cycles: backoff, Until: pred}, then)
}

// Next implements proc.Workload.
func (t *Thread) Next(prev uint64) (proc.Op, bool) {
	if t.last != nil {
		fn := t.last
		t.last = nil
		fn(prev, t) // may push further operations
	}
	// The pending slot, when occupied, is always the oldest entry: push
	// claims it only when the queue was empty.
	if t.hasPending {
		op, then := t.pending.op, t.pending.then
		t.pending = queued{}
		t.hasPending = false
		t.last = then
		return op, true
	}
	if len(t.queue) == 0 {
		return proc.Op{}, false
	}
	q := t.queue[0]
	// Pop from the front; the queue stays tiny (straight-line CPS code
	// pushes one op at a time), so the copy is cheap.
	copy(t.queue, t.queue[1:])
	t.queue = t.queue[:len(t.queue)-1]
	t.last = q.then
	return q.op, true
}

var _ proc.Workload = (*Thread)(nil)

// Loop runs body n times (body receives the iteration index and a
// continuation to call when the iteration finishes), then continues.
func Loop(t *Thread, n int, body func(i int, t *Thread, next func(*Thread)), then func(*Thread)) {
	// The iteration index is mutable state captured by one continuation,
	// rather than a parameter captured by a fresh closure per iteration:
	// iterations of a CPS loop are strictly sequential, so advancing i
	// before body runs and reusing iter as the next-continuation is safe,
	// and the loop allocates nothing after setup.
	i := 0
	var iter func(t *Thread)
	iter = func(t *Thread) {
		if i >= n {
			then(t)
			return
		}
		cur := i
		i++
		body(cur, t, iter)
	}
	iter(t)
}

// Each runs body once per element index of a length-n sequence,
// sequentially, then continues. It is Loop with clearer intent at call
// sites that walk address slices.
func Each(t *Thread, n int, body func(i int, t *Thread, next func(*Thread)), then func(*Thread)) {
	Loop(t, n, body, then)
}
