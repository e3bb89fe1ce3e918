// Package check verifies the coherence protocols: a per-location
// sequential-consistency observer for live runs, structural end-state
// invariants over directories and caches, and one harness (Run) that
// drives a random contended workload under a seeded fault plan across
// many seeds and schemes. Its two presets are Explore, whose plan's delay
// class perturbs message orderings on a small machine — the simulation
// analogue of model-checking the protocol — and Chaos, every fault class
// under a watchdog.
package check

import (
	"fmt"
	"sync"

	"limitless/internal/cache"
	"limitless/internal/directory"
	"limitless/internal/fault"
	"limitless/internal/machine"
	"limitless/internal/mesh"
)

// Violation is the structured protocol-violation record produced by the
// hardened controllers. It lives in the fault package (the controllers
// cannot import this one); the alias makes check the natural vocabulary
// for test code that consumes both observers and recorded violations.
type Violation = fault.Violation

// Observer validates per-location ordering as operations commit.
//
// Writes to one block are serialized by its home directory, so their
// commit order is their coherence order. Every read must return either the
// initial value or a logged write value, and the index of the write a
// processor observes must never move backwards from what that processor
// has already observed or produced on that block — the coherence
// requirement sequential consistency builds on.
type Observer struct {
	// mu serializes notes, so one observer may watch simulations that run
	// at once on several goroutines, as SweepN's points do.
	mu sync.Mutex
	// writes[addr] is the value log in commit order (index 0 = initial 0).
	writes map[directory.Addr][]uint64
	// valueIdx[addr][value] is the latest log index holding value.
	valueIdx map[directory.Addr]map[uint64]int
	// seen[node][addr] is the highest write index the node has observed.
	seen       map[mesh.NodeID]map[directory.Addr]int
	violations []string
	reads      uint64
	writesN    uint64
}

// NewObserver returns an empty observer.
func NewObserver() *Observer {
	return &Observer{
		writes:   make(map[directory.Addr][]uint64),
		valueIdx: make(map[directory.Addr]map[uint64]int),
		seen:     make(map[mesh.NodeID]map[directory.Addr]int),
	}
}

func (o *Observer) log(addr directory.Addr) []uint64 {
	w, ok := o.writes[addr]
	if !ok {
		w = []uint64{0} // initial memory image
		o.writes[addr] = w
		o.valueIdx[addr] = map[uint64]int{0: 0}
	}
	return w
}

func (o *Observer) nodeSeen(n mesh.NodeID) map[directory.Addr]int {
	s, ok := o.seen[n]
	if !ok {
		s = make(map[directory.Addr]int)
		o.seen[n] = s
	}
	return s
}

// NoteWrite records a committed store of value by node.
func (o *Observer) NoteWrite(node mesh.NodeID, addr directory.Addr, value uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.writesN++
	o.log(addr)
	o.writes[addr] = append(o.writes[addr], value)
	idx := len(o.writes[addr]) - 1
	o.valueIdx[addr][value] = idx
	o.nodeSeen(node)[addr] = idx
}

// NoteRead records a committed load that returned value at node.
func (o *Observer) NoteRead(node mesh.NodeID, addr directory.Addr, value uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.reads++
	o.log(addr)
	idx, ok := o.valueIdx[addr][value]
	if !ok {
		o.violations = append(o.violations, fmt.Sprintf(
			"node %d read %d from %#x: value was never written", node, value, addr))
		return
	}
	s := o.nodeSeen(node)
	if prev := s[addr]; idx < prev {
		o.violations = append(o.violations, fmt.Sprintf(
			"node %d read stale value %d (write #%d) from %#x after observing write #%d",
			node, value, idx, addr, prev))
		return
	}
	s[addr] = idx
}

// Violations returns every ordering violation detected so far.
func (o *Observer) Violations() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.violations
}

// Ops returns the number of recorded reads and writes.
func (o *Observer) Ops() (reads, writes uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.reads, o.writesN
}

// EndState verifies the structural invariants of a quiesced machine:
//
//   - every directory entry rests in Read-Only or Read-Write with a zero
//     acknowledgment counter and a Normal or trap-mode meta state (never
//     the Trans-In-Progress interlock);
//   - a Read-Write entry has exactly one recorded owner, that owner's
//     cache holds the block Read-Write, and no other cache holds it;
//   - for a Read-Only entry, no cache holds the block Read-Write, every
//     cached copy carries the memory's current value, and every cached
//     copy is covered by a directory pointer, the Local Bit, or the
//     node's software directory vector;
//   - no cache controller has an outstanding miss transaction.
//
// It returns human-readable violations (empty means the machine is sound).
func EndState(m *machine.Machine) []string {
	var bad []string
	blame := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}

	for _, n := range m.Nodes {
		if out := n.CC.Outstanding(); out != 0 {
			blame("node %d still has %d outstanding transactions", n.ID, out)
		}
	}

	for _, home := range m.Nodes {
		home.MC.Dir().ForEach(func(addr directory.Addr, e *directory.Entry) {
			if e.Meta == directory.TransInProgress {
				blame("entry %#x stuck in Trans-In-Progress", addr)
			}
			switch e.State {
			case directory.ReadOnly:
				for _, n := range m.Nodes {
					st := n.Cache.State(addr)
					if st == cache.ReadWrite {
						blame("entry %#x Read-Only but node %d holds it Read-Write", addr, n.ID)
					}
					if st == cache.ReadOnly {
						if v, _ := n.Cache.Read(addr); v != e.Value {
							blame("entry %#x value %d but node %d caches %d", addr, e.Value, n.ID, v)
						}
						if !covered(m, home, e, addr, n.ID) {
							blame("entry %#x cached at node %d without directory coverage", addr, n.ID)
						}
					}
				}
			case directory.ReadWrite:
				owners := 0
				for _, n := range m.Nodes {
					switch n.Cache.State(addr) {
					case cache.ReadWrite:
						owners++
						if !e.Ptrs.Contains(n.ID) && !(e.Local && n.ID == home.ID) {
							blame("entry %#x owned by unrecorded node %d", addr, n.ID)
						}
					case cache.ReadOnly:
						blame("entry %#x Read-Write but node %d holds a read copy", addr, n.ID)
					}
				}
				if owners != 1 {
					blame("entry %#x Read-Write with %d owners", addr, owners)
				}
				if e.AckCtr != 0 {
					blame("entry %#x rests with AckCtr=%d", addr, e.AckCtr)
				}
			default:
				blame("entry %#x stuck in %v", addr, e.State)
			}
		})
	}
	return bad
}

// covered reports whether node holding a read copy of addr is recorded by
// the home's hardware pointers, Local Bit, or software directory.
func covered(m *machine.Machine, home *machine.Node, e *directory.Entry, addr directory.Addr, node mesh.NodeID) bool {
	if e.Ptrs.Contains(node) {
		return true
	}
	if e.Local && node == home.ID {
		return true
	}
	if home.SW != nil && home.SW.Covers(addr, node) {
		return true
	}
	if home.SWFull != nil && home.SWFull.Covers(addr, node) {
		return true
	}
	// Chained directories record only the head pointer; the rest of the
	// sharing list lives in the caches. Blocks under Trap-Always may be
	// owned by an extension handler (profiling, locks, update mode) this
	// checker cannot see into.
	if m.Config().Params.Scheme.Info().ChainedList || e.Meta == directory.TrapAlways {
		return true
	}
	return false
}

// SingleWriter checks the always-true invariant that at most one cache
// holds any block Read-Write. It is safe to call at any instant, even
// mid-transaction.
func SingleWriter(m *machine.Machine) []string {
	owners := make(map[directory.Addr][]mesh.NodeID)
	for _, home := range m.Nodes {
		home.MC.Dir().ForEach(func(addr directory.Addr, _ *directory.Entry) {
			for _, n := range m.Nodes {
				if n.Cache.State(addr) == cache.ReadWrite {
					owners[addr] = append(owners[addr], n.ID)
				}
			}
		})
	}
	var bad []string
	for addr, list := range owners {
		if len(list) > 1 {
			bad = append(bad, fmt.Sprintf("block %#x held Read-Write by %v simultaneously", addr, list))
		}
	}
	return bad
}
