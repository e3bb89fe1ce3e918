package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// WindowMode selects how the sharded engine derives its window boundaries.
//
// Adaptive lookahead is the default: each window's end is computed from
// partition-independent quantities — every other shard's next pending
// deadline plus the minimum cross-shard latency, the earliest deferred
// cross-shard send plus that same latency, and each shard's own first
// deferred send of the window (enforced inside the run via ClampRunLimit) —
// so quiet stretches run windows tens or hundreds of cycles wide and the
// barrier count collapses. The fixed mode is the original W-wide lockstep
// window, kept as the cross-check oracle: both modes execute the identical
// canonical event order, so every result is bit-identical under either —
// the oracle differential tests and fuzz target assert it.
type WindowMode uint8

const (
	// WindowAdaptive derives each window's end from the global slack
	// (deadlines + deferred sends); the default.
	WindowAdaptive WindowMode = iota
	// WindowFixed advances in fixed W-wide windows and flushes at every
	// barrier — the reference discipline.
	WindowFixed
)

// ShardedEngine drives several engines in conservative lockstep time
// windows — the classic Chandy-Misra lookahead discipline. The caller
// partitions its model across K engines such that shards interact only
// through deferred sends applied by a flush callback at the single-threaded
// window barriers: during a window each engine executes only local events
// with no access to any other shard's state. The window width W must be a
// lower bound on the latency of any cross-shard interaction (for the mesh
// network, the minimum inject-to-eject packet latency).
//
// Execution is deterministic and invariant under both the shard count and
// the window mode: window boundaries are derived from partition-independent
// quantities, deferred sends are flushed in one canonical (send cycle,
// source, program order) sequence regardless of how windows carve it into
// batches, and the flush callback runs alone between windows. Each engine
// has its own runner: the coordinator (the goroutine calling Run) executes
// engine 0 and goroutine r executes engine r, so the caller buys
// parallelism by partitioning its model into one engine per goroutine it
// wants.
//
// A ShardedEngine over one engine runs no windows and starts no goroutine:
// it runs that engine straight through, and the model flushes its deferred
// sends from the engine's end-of-cycle hook (SetCycleHook) instead of from
// the flush callback, which is never invoked. Flushing every cycle's sends
// at the end of that cycle claims them in the same canonical order as the
// windowed flush, and numbers the deliveries after every event allocated
// during the send cycle and before any allocated during a later one — the
// order the windowed flush's cycle-tagged keys encode — so one engine gives
// the same results as any number of windowed shards.
//
// The model side of the contract, in adaptive mode:
//
//   - flush(before, mins) must apply exactly the deferred sends with send
//     cycle < before, in canonical order, and lower mins[shard] to the
//     earliest event time it inserts into each shard's engine. Sends at or
//     beyond the threshold stay logged for a later barrier.
//   - the held probe (SetHeldProbe) must report the earliest logged send
//     cycle, or Forever when no sends are pending.
//   - when a model defers a cross-shard send at cycle t it must call
//     ClampRunLimit(t+W-1) on its engine, so a shard never outruns the
//     delivery of its own earliest send. (In fixed mode the clamp is a
//     no-op: the window already ends at t+W or earlier.)
type ShardedEngine struct {
	engines []*Engine
	window  Time
	flush   func(before Time, mins []Time)
	heldMin func() Time
	mode    WindowMode

	// deadlines caches each engine's next pending deadline (Forever when
	// its queue is empty). Runners publish their engine's slot after each
	// window; the coordinator folds flush insertions in via the mins
	// slice. One cache line per slot so concurrent publishes do not bounce.
	deadlines []paddedTime
	caps      []Time // per-shard window end, written by the coordinator before dispatch
	mins      []Time // flush scratch: per-shard min inserted event time

	windows uint64 // barriers run (coordinator-only)
	flushes uint64 // flush callbacks actually invoked (coordinator-only)

	// Worker-pool coordination. The coordinator (the goroutine calling
	// Run) executes engine 0 inline; runners[r-1] is the goroutine for
	// engine r, with go/done epochs on private cache lines: each worker
	// spins only on its own line, and the coordinator's completion wait
	// reads each runner's done word instead of all workers hammering one
	// shared pending counter.
	runners []*shardRunner
	started bool
	epoch   uint64 // coordinator-private dispatch epoch

	// aborted permanently halts the window loop (see Abort).
	aborted bool
}

// paddedTime is one cached deadline on its own pair of cache lines, so
// runners publishing adjacent shards' deadlines never share a line (128
// bytes also defeats adjacent-line prefetching between writers).
type paddedTime struct {
	t Time
	_ [120]byte
}

// shardRunner is one engine's worker: the engine's index and its
// coordination block. goEpoch is written by the coordinator and spun on by
// the worker; done is written by the worker and spun on by the coordinator.
// The pads keep each runner's words off every other runner's (and the
// coordinator's) cache lines.
type shardRunner struct {
	_       [64]byte
	goEpoch atomic.Uint64
	done    atomic.Uint64
	stop    atomic.Bool
	parked  atomic.Bool
	wake    chan struct{}
	idx     int
	_       [64]byte
}

// NewShardedEngine builds a window driver over engines, one runner per
// engine. window is the lookahead in cycles (≥ 1); flush is invoked between
// windows with an exclusive send-cycle threshold and must apply all
// deferred cross-shard sends below it (see the ShardedEngine contract).
func NewShardedEngine(engines []*Engine, window Time, flush func(before Time, mins []Time)) *ShardedEngine {
	if len(engines) == 0 {
		panic("sim: sharded engine with no shards")
	}
	if window < 1 {
		panic(fmt.Sprintf("sim: window width %d < 1", window))
	}
	return &ShardedEngine{
		engines:   engines,
		window:    window,
		flush:     flush,
		deadlines: make([]paddedTime, len(engines)),
		caps:      make([]Time, len(engines)),
		mins:      make([]Time, len(engines)),
	}
}

// SetWindowMode selects the window discipline. Switch only between runs.
func (s *ShardedEngine) SetWindowMode(m WindowMode) { s.mode = m }

// Mode returns the active window mode.
func (s *ShardedEngine) Mode() WindowMode { return s.mode }

// SetHeldProbe installs the deferred-send probe: it must return the
// earliest send cycle still logged by the model, or Forever when none is.
// Adaptive mode requires it whenever the model defers sends; without a
// probe the engine assumes no sends are ever held.
func (s *ShardedEngine) SetHeldProbe(f func() Time) { s.heldMin = f }

// Windows returns the number of window barriers run so far.
func (s *ShardedEngine) Windows() uint64 { return s.windows }

// Flushes returns the number of flush callbacks invoked so far. In fixed
// mode this equals Windows; in adaptive mode barriers with nothing to
// flush skip the callback.
func (s *ShardedEngine) Flushes() uint64 { return s.flushes }

// Processed returns the total events executed across all shards.
func (s *ShardedEngine) Processed() uint64 {
	var n uint64
	for _, e := range s.engines {
		n += e.Processed()
	}
	return n
}

// Run executes windows until every shard's queue drains and all deferred
// sends are applied, and returns the time of the last executed event.
func (s *ShardedEngine) Run() Time { return s.run(Forever) }

// RunUntil executes events with deadlines at or before limit, like
// Engine.RunUntil, and returns the time of the last executed event.
func (s *ShardedEngine) RunUntil(limit Time) Time { return s.run(limit) }

// Abort permanently stops the window loop and every engine: the run in
// progress returns at the current barrier (over one engine, at the end of
// the current cycle) and later runs return immediately. It may only be
// called from a single-threaded context — the flush callback, a one-engine
// driver's end-of-cycle hook, or between runs — never from inside a
// windowed shard's event execution. The machine's reliable transport aborts
// a run whose retransmit budget is exhausted.
func (s *ShardedEngine) Abort() {
	s.aborted = true
	for _, e := range s.engines {
		e.Abort()
	}
}

// Aborted reports whether Abort was called.
func (s *ShardedEngine) Aborted() bool { return s.aborted }

// held returns the earliest deferred send cycle, or Forever.
func (s *ShardedEngine) held() Time {
	if s.heldMin == nil {
		return Forever
	}
	return s.heldMin()
}

func (s *ShardedEngine) run(limit Time) Time {
	if len(s.engines) == 1 {
		return s.engines[0].RunUntil(limit)
	}
	// Refresh the deadline cache: events may have been scheduled between
	// runs (model setup, a previous partial run) behind our back. Within
	// the loop the cache is maintained incrementally — runners publish
	// after executing, the flush reports its insertions — so this is the
	// only full probe pass per run call.
	for i, e := range s.engines {
		s.deadlines[i].t = nextOrForever(e)
	}
	if s.mode == WindowFixed {
		s.runFixed(limit)
	} else {
		s.runAdaptive(limit)
	}
	return s.maxNow()
}

// runFixed is the reference discipline: lockstep windows of exactly the
// lookahead width, a flush at every barrier.
func (s *ShardedEngine) runFixed(limit Time) {
	for !s.aborted {
		start := Forever
		for i := range s.deadlines {
			if t := s.deadlines[i].t; t < start {
				start = t
			}
		}
		if start == Forever || start > limit {
			if s.drainHeld(limit) {
				continue
			}
			return
		}
		end := start + s.window
		if limit != Forever && end > limit+1 {
			end = limit + 1 // cap is derived from limit, not the partition
		}
		active, lone := 0, 0
		for i := range s.deadlines {
			s.caps[i] = end
			if s.deadlines[i].t < end {
				active++
				lone = i
			}
		}
		s.runWindow(active, lone)
		s.doFlush(end)
	}
}

// runAdaptive derives each window's end from the global slack. One O(shards)
// pass over the cached deadlines yields the two smallest deadlines; each
// shard's window then ends at the earliest of: the run limit, the earliest
// deferred send + W (a logged send must be flushed before any shard outruns
// its delivery), and the other shards' minimum deadline + W (an undeferred
// shard might still send as early as its next event). A shard's own first
// deferred send caps it one W past the send cycle from inside the run
// (ClampRunLimit). Deferred sends are flushed only once no earlier send can
// still occur — send cycles below both the globally next deadline and the
// earliest logged send + W — so the flush sequence is the same canonical
// order fixed mode produces, just carved into fewer, larger batches.
func (s *ShardedEngine) runAdaptive(limit Time) {
	w := s.window
	for !s.aborted {
		min1, min2 := Forever, Forever
		arg := -1
		for i := range s.deadlines {
			t := s.deadlines[i].t
			if t < min1 {
				min1, min2, arg = t, min1, i
			} else if t < min2 {
				min2 = t
			}
		}
		held := s.held()
		heldDel := Forever // earliest possible deferred delivery
		if held != Forever {
			heldDel = held + w
		}
		// Nothing executable remains at or before limit (Forever compares
		// equal to itself, so a drained run under limit == Forever needs the
		// explicit checks).
		if (min1 == Forever || min1 > limit) && (heldDel == Forever || heldDel > limit) {
			return
		}
		if held < min1 && held < heldDel {
			// Sends below min(min1, held+W) are final: no shard can produce
			// an earlier send (future sends happen at ≥ min1, and deliveries
			// of flushed sends land at ≥ held+W). Flush that prefix and
			// re-derive: the inserted deliveries may open an earlier window.
			before := min1
			if heldDel < before {
				before = heldDel
			}
			s.doFlush(before)
			continue
		}
		eCap := heldDel // never outrun a logged send's delivery
		if limit != Forever && limit+1 < eCap {
			eCap = limit + 1
		}
		active, lone := 0, 0
		for i := range s.deadlines {
			other := min1
			if i == arg {
				other = min2
			}
			end := eCap
			if other != Forever && other+w < end {
				end = other + w
			}
			s.caps[i] = end
			if s.deadlines[i].t < end {
				active++
				lone = i
			}
		}
		s.runWindow(active, lone)
	}
}

// drainHeld handles the fixed-mode tail: deferred sends can remain logged
// past the last window when their send cycles reached the window end (a
// RunUntil cap mid-window). Flush them if any could still deliver within
// limit; reports whether it flushed.
func (s *ShardedEngine) drainHeld(limit Time) bool {
	held := s.held()
	if held == Forever || limit != Forever && held+s.window > limit {
		return false
	}
	s.doFlush(held + s.window)
	return true
}

// runWindow executes one window under the caps the coordinator just
// published: inline when only one shard is active, else on every runner.
func (s *ShardedEngine) runWindow(active, lone int) {
	s.windows++
	switch {
	case active > 1:
		s.dispatch()
	case active == 1:
		s.runEngine(lone)
	}
}

// doFlush invokes the flush callback with the send-cycle threshold and
// folds the inserted deliveries into the deadline cache.
func (s *ShardedEngine) doFlush(before Time) {
	s.flushes++
	mins := s.mins
	for i := range mins {
		mins[i] = Forever
	}
	s.flush(before, mins)
	for i, t := range mins {
		if t < s.deadlines[i].t {
			s.deadlines[i].t = t
		}
	}
}

// runEngine executes engine i's events strictly before its cap and
// publishes its new deadline. The cached deadline replaces the old
// window-start probe, and the fused run+probe publishes the new deadline
// from the run's own exit scan while the engine's wheel is still hot in
// this goroutine's cache.
func (s *ShardedEngine) runEngine(i int) {
	if s.deadlines[i].t >= s.caps[i] {
		return
	}
	s.deadlines[i].t = s.engines[i].RunUntilNext(s.caps[i] - 1)
}

func nextOrForever(e *Engine) Time {
	if t, ok := e.NextEventTime(); ok {
		return t
	}
	return Forever
}

// dispatch runs one window on every engine's runner and waits for every
// runner's done epoch — a flat sense-free barrier: each worker spins only
// on its own goEpoch line and the coordinator sweeps the done lines, so no
// shared word is write-contended.
func (s *ShardedEngine) dispatch() {
	if !s.started {
		s.startWorkers()
	}
	s.epoch++
	ep := s.epoch
	for _, r := range s.runners {
		r.goEpoch.Store(ep)
		if r.parked.Load() {
			select {
			case r.wake <- struct{}{}:
			default:
			}
		}
	}
	s.runEngine(0)
	for _, r := range s.runners {
		for r.done.Load() != ep {
			runtime.Gosched()
		}
	}
}

func (s *ShardedEngine) startWorkers() {
	s.runners = make([]*shardRunner, 0, len(s.engines)-1)
	for i := 1; i < len(s.engines); i++ {
		r := &shardRunner{idx: i, wake: make(chan struct{}, 1)}
		r.goEpoch.Store(s.epoch)
		r.done.Store(s.epoch)
		s.runners = append(s.runners, r)
		go s.workerLoop(r)
	}
	s.started = true
}

// Stop shuts the worker pool down. The next Run or RunUntil restarts it, so
// Stop is safe to call between runs; it is a no-op when no workers exist.
func (s *ShardedEngine) Stop() {
	if !s.started {
		return
	}
	s.epoch++
	ep := s.epoch
	for _, r := range s.runners {
		r.stop.Store(true)
		r.goEpoch.Store(ep)
		if r.parked.Load() {
			select {
			case r.wake <- struct{}{}:
			default:
			}
		}
	}
	for _, r := range s.runners {
		for r.done.Load() != ep {
			runtime.Gosched()
		}
	}
	s.runners = nil
	s.started = false
}

func (s *ShardedEngine) workerLoop(r *shardRunner) {
	seen := r.done.Load()
	idle := 0
	for {
		g := r.goEpoch.Load()
		if g == seen {
			idle++
			if idle < 256 {
				runtime.Gosched()
				continue
			}
			// Park until the coordinator wakes us. The recheck closes the
			// race with an epoch store between the Load above and the park
			// flag becoming visible; a stale token in the buffered channel
			// only causes one extra loop iteration — the epoch comparison,
			// not the wake, decides whether the engine runs a window.
			r.parked.Store(true)
			if r.goEpoch.Load() == seen {
				<-r.wake
			}
			r.parked.Store(false)
			idle = 0
			continue
		}
		seen = g
		idle = 0
		if r.stop.Load() {
			r.done.Store(g)
			return
		}
		s.runEngine(r.idx)
		r.done.Store(g)
	}
}
