package sim

// Resource models a unit-service-rate shared resource — a network link, a
// memory bank, a controller port — using busy-until bookkeeping. A client
// asks to occupy the resource for a duration starting no earlier than some
// cycle; the resource returns when service actually begins, serializing
// overlapping claims in arrival order.
//
// This is the standard analytic shortcut for FIFO queueing in event-driven
// simulators: rather than modelling the queue's elements, track only the
// time at which the server frees up.
type Resource struct {
	busyUntil Time
}

// Claim reserves the resource for dur cycles starting no earlier than from.
// It returns the cycle at which service begins; service ends at start+dur.
func (r *Resource) Claim(from Time, dur Time) (start Time) {
	if dur < 0 {
		panic("sim: negative resource claim")
	}
	start = from
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + dur
	return start
}

// Repeat records, in closed form, a run of Claim calls whose last claim
// ends at until: what that run would leave behind. until must not precede
// the current busy-until.
func (r *Resource) Repeat(until Time) {
	if until < r.busyUntil {
		panic("sim: resource repeat before its busy-until")
	}
	r.busyUntil = until
}

// FreeAt returns the earliest cycle at or after from when the resource is idle.
func (r *Resource) FreeAt(from Time) Time {
	if r.busyUntil > from {
		return r.busyUntil
	}
	return from
}
