package sim

// Watchdog detects a wedged simulation: events keep firing but the model
// makes no forward progress (a livelock — BUSY/retry storms, a lost
// acknowledgment, an interlock never released). Progress is whatever
// monotone counter the caller considers "useful work" (the machine model
// uses committed memory operations plus completed software handlers);
// Interval is how many simulated cycles may elapse without that counter
// moving before the run is declared stuck.
//
// The guarded run loops in chunks of Interval cycles anchored at the next
// pending deadline, so an idle stretch with no events does not trip the
// watchdog — only event activity without progress does.
type Watchdog struct {
	// Interval is the no-progress budget in simulated cycles (> 0).
	Interval Time
	// Progress returns the monotone work counter.
	Progress func() uint64
}

func (w Watchdog) enabled() bool { return w.Interval > 0 && w.Progress != nil }

// RunGuarded executes events with deadlines at or before limit, checking
// the watchdog between chunks. It returns the engine clock and whether the
// watchdog tripped: true means events were still pending within limit but
// the progress counter did not move for a full interval. A disabled
// watchdog (zero Interval or nil Progress) degrades to RunUntil.
//
// Chunking is invisible to the simulation: RunUntil(chunk) executes the
// exact same event sequence whether or not it is split at chunk
// boundaries, so a guarded run is cycle-for-cycle identical to an
// unguarded one.
func (e *Engine) RunGuarded(w Watchdog, limit Time) (Time, bool) {
	if !w.enabled() {
		return e.RunUntil(limit), false
	}
	last := w.Progress()
	for {
		next, ok := e.NextEventTime()
		if !ok || next > limit {
			return e.now, false
		}
		chunk := next + w.Interval - 1
		if chunk > limit || chunk < next { // chunk < next on overflow near Forever
			chunk = limit
		}
		e.RunUntil(chunk)
		if e.abort {
			return e.now, false
		}
		cur := w.Progress()
		if cur == last {
			if t, ok := e.NextEventTime(); ok && t <= limit {
				return e.now, true
			}
			return e.now, false
		}
		last = cur
	}
}

// nextTime returns the globally earliest pending deadline across shards,
// or Forever when every queue is empty. Between runs no send is logged:
// every barrier flushes them all.
func (s *ShardedEngine) nextTime() Time {
	next := Forever
	for _, e := range s.engines {
		if t, ok := e.NextEventTime(); ok && t < next {
			next = t
		}
	}
	return next
}

// maxNow returns the latest shard clock — the sharded analogue of the time
// of the last executed event.
func (s *ShardedEngine) maxNow() Time {
	var last Time
	for _, e := range s.engines {
		if e.Now() > last {
			last = e.Now()
		}
	}
	return last
}

// RunGuarded is the windowed analogue of Engine.RunGuarded: it drives the
// shard windows in chunks of Interval cycles and trips when the progress
// counter stalls while events remain within limit. Chunk boundaries cannot
// split a cycle (run caps each window at chunk+1, so cycle chunk executes
// completely and its deferred sends flush in canonical order), so a
// guarded windowed run is bit-identical to an unguarded one.
func (s *ShardedEngine) RunGuarded(w Watchdog, limit Time) (Time, bool) {
	if len(s.engines) == 1 {
		return s.engines[0].RunGuarded(w, limit)
	}
	if !w.enabled() {
		return s.run(limit), false
	}
	last := w.Progress()
	for {
		next := s.nextTime()
		if next == Forever || next > limit {
			return s.maxNow(), false
		}
		chunk := next + w.Interval - 1
		if chunk > limit || chunk < next {
			chunk = limit
		}
		s.run(chunk)
		if s.aborted {
			return s.maxNow(), false
		}
		cur := w.Progress()
		if cur == last {
			if t := s.nextTime(); t != Forever && t <= limit {
				return s.maxNow(), true
			}
			return s.maxNow(), false
		}
		last = cur
	}
}
