package fault

import (
	"fmt"
	"sort"
	"sync"

	"limitless/internal/sim"
)

// Violation records a protocol rule broken at runtime — an unexpected
// message for a directory or transaction state, an impossible pointer-set
// shape, and so on. With a Recorder installed the controllers record the
// violation and drop the offending message instead of panicking, so an
// adversarial run ends with a report rather than a stack trace.
type Violation struct {
	Cycle sim.Time // simulation time the violation was observed
	Node  int      // node whose controller observed it
	Kind  string   // short machine-readable class, e.g. "memctrl-dispatch"
	State string   // controller/directory state at the time
	Msg   string   // human-readable description with message context
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d node %d [%s] state=%s: %s", v.Cycle, v.Node, v.Kind, v.State, v.Msg)
}

// Recorder accumulates violations. It is safe for concurrent use, and
// Violations reports in a deterministic order regardless of recording
// interleaving.
type Recorder struct {
	mu   sync.Mutex
	recs []Violation
}

// Record appends v.
func (r *Recorder) Record(v Violation) {
	r.mu.Lock()
	r.recs = append(r.recs, v)
	r.mu.Unlock()
}

// Len returns the number of recorded violations.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// Violations returns a sorted copy (by cycle, then node, then message), so
// the report does not depend on the order violations were recorded in.
func (r *Recorder) Violations() []Violation {
	r.mu.Lock()
	out := make([]Violation, len(r.recs))
	copy(out, r.recs)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Msg < b.Msg
	})
	return out
}
