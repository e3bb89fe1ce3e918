// Package swdir implements the software half of the LimitLESS scheme: the
// trap handlers that run on a node's processor when the memory controller
// forwards a protocol packet through the IPI interface (Sections 4.3–4.4
// of the paper).
//
// The baseline handler follows Section 4.4 exactly: on the first overflow
// trap for a memory line it allocates a full-map bit vector in local
// memory and enters it into a hash table; on every overflow trap it
// empties the hardware pointers into that vector, adds the requester,
// answers the read itself, and leaves the line in Trap-On-Write mode so
// hardware keeps servicing reads. Software handling terminates on a
// trapped write request: the handler empties the pointers one last time,
// records the requester in the directory, sets the acknowledgment counter
// to the vector's population count, places the entry in Normal mode /
// Write-Transaction state, sends the invalidations, and frees the vector —
// returning the line to hardware control.
//
// The same package hosts the Section 6 extensions: full software emulation
// of the protocol (Trap-Always / the SoftwareOnly scheme), worker-set
// profiling, FIFO-lock synthesis, and update-mode coherence.
package swdir

import (
	"fmt"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/ipi"
	"limitless/internal/mesh"
)

// Controller is the software handler's view of its node's memory
// controller: direct access to directory state ("the directories are
// placed in a special region of memory that may be read and written by
// the processor") plus the IPI output path for launching protocol packets.
// *coherence.MemoryController satisfies it.
type Controller interface {
	ID() mesh.NodeID
	Nodes() int
	Dir() *directory.Store
	// Decode unpacks a trapped packet into a message the controller
	// holds. The message stays valid until the next Decode, so for the
	// rest of the Handle call; the packet does not outlive that call.
	Decode(p *ipi.Packet) (mesh.NodeID, *coherence.Msg)
	// Send copies m into a network payload and launches it.
	Send(dst mesh.NodeID, m coherence.Msg)
	Release(addr directory.Addr)
}

// Stats counts software-handler activity.
type Stats struct {
	// OverflowTraps counts RREQs handled after a pointer-array overflow.
	OverflowTraps uint64
	// WriteTerminations counts trapped writes that returned a line to
	// hardware control.
	WriteTerminations uint64
	// VectorsAllocated / VectorsFreed track the hash table of full-map
	// vectors in local memory.
	VectorsAllocated uint64
	VectorsFreed     uint64
	// MaxResident is the high-water mark of simultaneously allocated
	// vectors — the software directory's memory footprint.
	MaxResident int
	// PacketsHandled counts every packet processed in software.
	PacketsHandled uint64
	// InvalidationsSent counts INVs issued by software.
	InvalidationsSent uint64
}

// vectorTable is a software directory's hash table of full-map sharer sets
// kept in the node's local memory (Section 4.4). The sets draw their spill
// words from the same packed directory space as the hardware entries, so
// the software extension shares the arena, recorder, and storage-mode
// switch with the rest of the directory. buf is the owning handler's
// sharer-walk buffer.
type vectorTable struct {
	m   map[directory.Addr]*directory.SharerSet
	buf []directory.Node
}

// get returns (allocating on first use) the full-map vector for addr,
// counting the allocation in stats.
func (t *vectorTable) get(mc Controller, addr directory.Addr, stats *Stats) *directory.SharerSet {
	v, ok := t.m[addr]
	if ok {
		return v
	}
	v = new(directory.SharerSet)
	*v = mc.Dir().Space().NewSet(-1)
	if t.m == nil {
		t.m = make(map[directory.Addr]*directory.SharerSet)
	}
	t.m[addr] = v
	stats.VectorsAllocated++
	if len(t.m) > stats.MaxResident {
		stats.MaxResident = len(t.m)
	}
	return v
}

// drop discards the vector for addr, returning its spill words to the
// space, and reports whether there was one.
func (t *vectorTable) drop(addr directory.Addr) bool {
	v, ok := t.m[addr]
	if ok {
		v.Release()
		delete(t.m, addr)
	}
	return ok
}

// covers reports whether the vector for addr records node n.
func (t *vectorTable) covers(addr directory.Addr, n mesh.NodeID) bool {
	v, ok := t.m[addr]
	return ok && v.Contains(n)
}

// nodes walks set into the table's walk buffer, valid until the next walk.
func (t *vectorTable) nodes(set *directory.SharerSet) []directory.Node {
	t.buf = set.NodesInto(t.buf[:0])
	return t.buf
}

// Handler is the baseline LimitLESS trap handler.
type Handler struct {
	mc      Controller
	vectors vectorTable
	stats   Stats
	// observer, when set, is invoked for every software-handled packet —
	// the hook the profiling extension uses.
	observer func(src mesh.NodeID, m *coherence.Msg, workerSet int)
}

// New returns a trap handler bound to a node's memory controller.
func New(mc Controller) *Handler {
	return &Handler{mc: mc}
}

// Stats returns a copy of the handler's counters.
func (h *Handler) Stats() Stats { return h.stats }

// Resident returns the number of software-extended lines right now.
func (h *Handler) Resident() int { return len(h.vectors.m) }

// WorkerSet returns the current software-recorded worker-set size for
// addr, counting any pointers still in hardware. Zero when the line is not
// software-extended.
func (h *Handler) WorkerSet(addr directory.Addr) int {
	v, ok := h.vectors.m[addr]
	if !ok {
		return 0
	}
	n := v.Len()
	if e, ok := h.mc.Dir().Lookup(addr); ok {
		for _, p := range h.vectors.nodes(&e.Ptrs) {
			if !v.Contains(mesh.NodeID(p)) {
				n++
			}
		}
	}
	return n
}

// SetObserver installs a hook invoked after each software-handled packet
// with the packet and the line's worker-set size at that moment.
func (h *Handler) SetObserver(fn func(src mesh.NodeID, m *coherence.Msg, workerSet int)) {
	h.observer = fn
}

// Covers reports whether the software directory records node n as a reader
// of addr. The protocol checker uses it to account for cached copies whose
// pointers were emptied into software.
func (h *Handler) Covers(addr directory.Addr, n mesh.NodeID) bool {
	return h.vectors.covers(addr, n)
}

// vector returns (allocating on first use) the full-map vector for addr.
func (h *Handler) vector(addr directory.Addr) *directory.SharerSet {
	return h.vectors.get(h.mc, addr, &h.stats)
}

// empty moves every hardware pointer (and the Local Bit) into the vector,
// leaving the hardware array free to absorb more reads.
func (h *Handler) empty(e *directory.Entry, v *directory.SharerSet) {
	for _, p := range h.vectors.nodes(&e.Ptrs) {
		v.Add(mesh.NodeID(p))
	}
	if e.Local {
		v.Add(h.mc.ID())
	}
	e.Ptrs.Clear()
	e.Local = false
}

// free discards the software vector for addr, returning its spill words
// to the space.
func (h *Handler) free(addr directory.Addr) {
	if h.vectors.drop(addr) {
		h.stats.VectorsFreed++
	}
}

// Handle processes one trapped protocol packet. It must leave the
// directory entry in a consistent state and call Release exactly once so
// the controller clears the Trans-In-Progress interlock.
func (h *Handler) Handle(p *ipi.Packet) {
	src, m := h.mc.Decode(p)
	h.stats.PacketsHandled++
	e := h.mc.Dir().Entry(m.Addr)

	switch m.Type {
	case coherence.RREQ:
		h.overflowRead(src, m, e)
	case coherence.WREQ:
		h.writeTermination(src, m, e)
	case coherence.REPM:
		// An owner writeback trapped in Trap-On-Write mode: absorb the
		// data, drop the writer from the recorded set, stay in software.
		e.Value = m.Value
		h.vector(m.Addr).Remove(src)
		e.Meta = directory.TrapOnWrite
		h.mc.Release(m.Addr)
	case coherence.UPDATE:
		e.Value = m.Value
		h.vector(m.Addr).Remove(src)
		e.Meta = directory.TrapOnWrite
		h.mc.Release(m.Addr)
	default:
		panic(fmt.Sprintf("swdir: node %d trapped unexpected %v from %d", h.mc.ID(), m.Type, src))
	}

	if h.observer != nil {
		h.observer(src, m, h.WorkerSet(m.Addr))
	}
}

// overflowRead implements the Section 4.4 overflow path.
func (h *Handler) overflowRead(src mesh.NodeID, m *coherence.Msg, e *directory.Entry) {
	h.stats.OverflowTraps++
	v := h.vector(m.Addr)
	h.empty(e, v)
	v.Add(src)
	e.NoteSharers(v.Len())
	h.mc.Send(src, coherence.Msg{Type: coherence.RDATA, Addr: m.Addr, Value: e.Value, Next: -1})
	// Trap-On-Write: hardware resumes servicing reads with the emptied
	// pointer array; the next overflow (or any write) traps again.
	e.Meta = directory.TrapOnWrite
	h.mc.Release(m.Addr)
}

// writeTermination implements the Section 4.4 termination sequence: the
// line returns to hardware control in Normal mode, Write-Transaction
// state, with invalidations in flight to every recorded reader.
func (h *Handler) writeTermination(src mesh.NodeID, m *coherence.Msg, e *directory.Entry) {
	h.stats.WriteTerminations++
	v := h.vector(m.Addr)
	h.empty(e, v)

	// Invalidate every recorded copy except the requester's (the hardware
	// transition-3 convention: the requester's stale read copy, if any, is
	// superseded by the WDATA it is about to receive — but its cache must
	// still drop the old copy, so invalidate it too and count the ack).
	n := 0
	for _, k := range h.vectors.nodes(v) {
		if mesh.NodeID(k) == src {
			continue
		}
		h.mc.Send(mesh.NodeID(k), coherence.Msg{Type: coherence.INV, Addr: m.Addr, Next: -1})
		h.stats.InvalidationsSent++
		n++
	}
	// A read copy held by the requester itself needs no invalidation: the
	// WDATA fill it is about to receive replaces that copy.

	// Record the requester in the directory and hand back to hardware.
	e.Ptrs.Clear()
	e.Local = false
	e.Ptrs.Add(src)
	h.free(m.Addr)
	e.Meta = directory.Normal

	if n == 0 {
		// No other copies: grant immediately (hardware transition 2).
		e.State = directory.ReadWrite
		h.mc.Send(src, coherence.Msg{Type: coherence.WDATA, Addr: m.Addr, Value: e.Value, Next: -1})
	} else {
		e.State = directory.WriteTransaction
		e.AckCtr = n
	}
	h.mc.Release(m.Addr)
}
