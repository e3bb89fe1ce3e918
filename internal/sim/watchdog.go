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
