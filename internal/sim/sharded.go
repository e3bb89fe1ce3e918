package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
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
// Each window starts at the global minimum pending deadline T and runs
// every shard through T+W-1 (capped at the run limit); the barrier then
// flushes every send the window logged. A send at cycle t, T ≤ t ≤ T+W-1,
// delivers at t+W ≥ T+W or later, so every delivery lands at or past the
// barrier, and nothing stays logged from one window to the next.
//
// Execution is deterministic and invariant under the shard count: window
// boundaries depend only on the global minimum deadline, deferred sends are
// flushed in one canonical (send cycle, source, program order) sequence,
// and the flush callback runs alone between windows. Each engine has its
// own runner: the coordinator (the goroutine calling Run) executes engine 0
// and goroutine r executes engine r, so the caller buys parallelism by
// partitioning its model into one engine per goroutine it wants.
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
// The model side of the contract: flush(before, mins) must apply every
// deferred send — each has send cycle < before, the barrier — in canonical
// order, and lower mins[shard] to the earliest event time it inserts into
// each shard's engine.
type ShardedEngine struct {
	engines []*Engine
	window  Time
	flush   func(before Time, mins []Time)

	// deadlines caches each engine's next pending deadline (Forever when
	// its queue is empty). Runners publish their engine's slot after each
	// window; the coordinator folds flush insertions in via the mins
	// slice. One cache line per slot so concurrent publishes do not bounce.
	deadlines []paddedTime
	end       Time   // the current window's end (exclusive), written by the coordinator before dispatch
	mins      []Time // flush scratch: per-shard min inserted event time

	windows uint64 // barriers run (coordinator-only)

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
// engine. window is the lookahead in cycles (≥ 1); flush is invoked at
// every barrier with the window's exclusive end and must apply every
// deferred cross-shard send (see the ShardedEngine contract).
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
		mins:      make([]Time, len(engines)),
	}
}

// Windows returns the number of window barriers run so far.
func (s *ShardedEngine) Windows() uint64 { return s.windows }

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
	for !s.aborted {
		start := Forever
		for i := range s.deadlines {
			if t := s.deadlines[i].t; t < start {
				start = t
			}
		}
		if start == Forever || start > limit {
			break
		}
		end := start + s.window
		if limit != Forever && end > limit+1 {
			end = limit + 1 // the end is derived from limit, not the partition
		}
		s.runWindow(end)
		s.doFlush(end)
	}
	return s.maxNow()
}

// runWindow executes one window ending before end: inline when only one
// shard has an event in it, else on every runner.
func (s *ShardedEngine) runWindow(end Time) {
	s.windows++
	s.end = end
	active, lone := 0, 0
	for i := range s.deadlines {
		if s.deadlines[i].t < end {
			active++
			lone = i
		}
	}
	if active > 1 {
		s.dispatch()
	} else {
		s.runEngine(lone)
	}
}

// doFlush invokes the flush callback at the barrier end and folds the
// inserted deliveries into the deadline cache.
func (s *ShardedEngine) doFlush(end Time) {
	mins := s.mins
	for i := range mins {
		mins[i] = Forever
	}
	s.flush(end, mins)
	for i, t := range mins {
		if t < s.deadlines[i].t {
			s.deadlines[i].t = t
		}
	}
}

// runEngine executes engine i's events strictly before the window end and
// publishes its new deadline. The cached deadline replaces the old
// window-start probe, and the fused run+probe publishes the new deadline
// from the run's own exit scan while the engine's wheel is still hot in
// this goroutine's cache.
func (s *ShardedEngine) runEngine(i int) {
	if s.deadlines[i].t >= s.end {
		return
	}
	s.deadlines[i].t = s.engines[i].RunUntilNext(s.end - 1)
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
