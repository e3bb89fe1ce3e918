package swdir

import (
	"fmt"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/ipi"
	"limitless/internal/mesh"
)

// FIFOEvictHandler implements the remaining Section 6 coherence type: "the
// LimitLESS trap handler can cause FIFO directory eviction for data
// structures that are known to migrate from processor to processor."
//
// For a migratory block, extending the directory into software is wasted
// work — the old readers will never touch the block again, so their
// pointers are dead weight and their eventual invalidations pure overhead.
// This handler turns an overflow trap into a FIFO eviction instead: the
// oldest recorded reader is invalidated and the requester takes its slot,
// keeping the line in hardware with no software vector at all. It is the
// limited-directory eviction discipline, selected per data structure by
// software rather than wired in for the whole machine — the point of the
// "flexible coherence scheme" the section argues for.
type FIFOEvict struct {
	mc    Controller
	fifo  map[directory.Addr][]mesh.NodeID // recorded arrival order
	stats Stats
	// Evictions counts software-initiated FIFO evictions.
	Evictions uint64
}

// NewFIFOEvict returns a FIFO-eviction handler. Register migratory blocks
// and bind them in the node's Mux; only their overflow traps divert here
// (the block stays in Normal meta mode, so non-overflow traffic never
// reaches software).
func NewFIFOEvict(mc Controller) *FIFOEvict {
	return &FIFOEvict{mc: mc, fifo: make(map[directory.Addr][]mesh.NodeID)}
}

// Register declares addr a migratory block handled by FIFO eviction.
func (h *FIFOEvict) Register(addr directory.Addr) {
	h.fifo[addr] = nil
}

// Stats returns a copy of the handler's counters.
func (h *FIFOEvict) Stats() Stats { return h.stats }

// Handle implements PacketHandler: an overflow RREQ evicts the oldest
// pointer instead of growing a software vector.
func (h *FIFOEvict) Handle(p *ipi.Packet) {
	src, m := h.mc.Decode(p)
	h.stats.PacketsHandled++
	if _, ok := h.fifo[m.Addr]; !ok {
		panic(fmt.Sprintf("swdir: FIFO-evict handler got unregistered address %#x", m.Addr))
	}
	e := h.mc.Dir().Entry(m.Addr)
	defer func() {
		e.Meta = directory.Normal
		h.mc.Release(m.Addr)
	}()

	if m.Type != coherence.RREQ {
		panic(fmt.Sprintf("swdir: FIFO-evict handler got %v (only overflow reads divert here)", m.Type))
	}

	// Reconstruct arrival order from what we have seen; pointers that
	// vanished (write transactions cleared them) are dropped.
	order := h.fifo[m.Addr]
	kept := order[:0]
	for _, n := range order {
		if e.Ptrs.Contains(n) {
			kept = append(kept, n)
		}
	}
	// Hardware-recorded pointers the handler has not seen arrive precede
	// everything it has, in their own arrival order.
	hw := e.Ptrs.InOrder()
	var unseen []mesh.NodeID
	for _, n := range hw {
		found := false
		for _, k := range kept {
			if k == n {
				found = true
				break
			}
		}
		if !found {
			unseen = append(unseen, n)
		}
	}
	kept = append(unseen, kept...)

	victim := kept[0]
	kept = kept[1:]
	e.Ptrs.Remove(victim)
	e.Ptrs.Add(src)
	kept = append(kept, src)
	h.fifo[m.Addr] = kept
	h.Evictions++
	h.stats.InvalidationsSent++
	h.mc.Send(victim, coherence.Msg{Type: coherence.INV, Addr: m.Addr, Next: -1, Evict: true})
	h.mc.Send(src, coherence.Msg{Type: coherence.RDATA, Addr: m.Addr, Value: e.Value, Next: -1})
}

var _ PacketHandler = (*FIFOEvict)(nil)
