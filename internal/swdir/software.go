package swdir

import (
	"fmt"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/ipi"
	"limitless/internal/mesh"
)

// PacketHandler processes one trapped protocol packet. Implementations
// must leave the directory entry consistent and call the controller's
// Release exactly once per packet.
type PacketHandler interface {
	Handle(p *ipi.Packet)
}

// SoftwareHandler emulates the complete Figure-2 protocol in software. It
// backs the SoftwareOnly scheme (every entry in Trap-Always mode — the
// m = 1 limit of the Section 3.1 model, the paper's "migration path
// toward interrupt-driven cache coherence") and the Section 6 profiling
// extension, which places chosen locations in Trap-Always mode to observe
// every transaction without touching non-profiled lines.
//
// Sharers are tracked in a software bit vector; the hardware pointer array
// holds only the single party of an in-flight transaction (owner or
// waiting requester), mirroring the hardware convention.
type SoftwareHandler struct {
	mc      Controller
	vectors vectorTable
	stats   Stats
	// observer is the profiling hook (Section 6): called once per handled
	// packet with the line's worker-set size.
	observer func(src mesh.NodeID, m *coherence.Msg, workerSet int)
}

// NewSoftware returns a full-protocol software handler.
func NewSoftware(mc Controller) *SoftwareHandler {
	return &SoftwareHandler{mc: mc}
}

// Stats returns a copy of the handler's counters.
func (h *SoftwareHandler) Stats() Stats { return h.stats }

// SetObserver installs the profiling hook.
func (h *SoftwareHandler) SetObserver(fn func(src mesh.NodeID, m *coherence.Msg, workerSet int)) {
	h.observer = fn
}

// WorkerSet returns the recorded reader set size for addr.
func (h *SoftwareHandler) WorkerSet(addr directory.Addr) int {
	if v, ok := h.vectors.m[addr]; ok {
		return v.Len()
	}
	return 0
}

// Covers reports whether the software vector records node n as a reader of
// addr (see Handler.Covers).
func (h *SoftwareHandler) Covers(addr directory.Addr, n mesh.NodeID) bool {
	return h.vectors.covers(addr, n)
}

func (h *SoftwareHandler) vector(addr directory.Addr) *directory.SharerSet {
	return h.vectors.get(h.mc, addr, &h.stats)
}

// soleParty returns the single transaction participant recorded in the
// hardware pointer array.
func (h *SoftwareHandler) soleParty(e *directory.Entry) mesh.NodeID {
	nodes := h.vectors.nodes(&e.Ptrs)
	if len(nodes) != 1 {
		panic(fmt.Sprintf("swdir: node %d software FSM expected one pointer, have %v", h.mc.ID(), nodes))
	}
	return mesh.NodeID(nodes[0])
}

func (h *SoftwareHandler) setSole(e *directory.Entry, n mesh.NodeID) {
	e.Ptrs.Clear()
	e.Local = false
	e.Ptrs.Add(n)
}

// Handle implements PacketHandler: the complete protocol FSM in software.
func (h *SoftwareHandler) Handle(p *ipi.Packet) {
	src, m := h.mc.Decode(p)
	h.stats.PacketsHandled++
	e := h.mc.Dir().Entry(m.Addr)
	v := h.vector(m.Addr)

	// The controller set Trans-In-Progress when forwarding; restore
	// Trap-Always before releasing so every future packet traps too.
	defer func() {
		e.Meta = directory.TrapAlways
		h.mc.Release(m.Addr)
		if h.observer != nil {
			h.observer(src, m, h.WorkerSet(m.Addr))
		}
	}()

	switch m.Type {
	case coherence.RREQ:
		switch e.State {
		case directory.ReadOnly:
			v.Add(src)
			e.NoteSharers(v.Len())
			h.mc.Send(src, coherence.Msg{Type: coherence.RDATA, Addr: m.Addr, Value: e.Value, Next: -1})
		case directory.ReadWrite:
			owner := h.soleParty(e)
			e.State = directory.ReadTransaction
			h.setSole(e, src)
			h.mc.Send(owner, coherence.Msg{Type: coherence.INV, Addr: m.Addr, Next: -1})
			h.stats.InvalidationsSent++
		default:
			h.mc.Send(src, coherence.Msg{Type: coherence.BUSY, Addr: m.Addr, Next: -1})
		}

	case coherence.WREQ:
		switch e.State {
		case directory.ReadOnly:
			n := 0
			for _, k := range h.vectors.nodes(v) {
				if mesh.NodeID(k) == src {
					continue
				}
				h.mc.Send(mesh.NodeID(k), coherence.Msg{Type: coherence.INV, Addr: m.Addr, Next: -1})
				h.stats.InvalidationsSent++
				n++
			}
			v.Clear()
			h.setSole(e, src)
			if n == 0 {
				e.State = directory.ReadWrite
				h.mc.Send(src, coherence.Msg{Type: coherence.WDATA, Addr: m.Addr, Value: e.Value, Next: -1})
			} else {
				e.State = directory.WriteTransaction
				e.AckCtr = n
			}
			h.stats.WriteTerminations++
		case directory.ReadWrite:
			owner := h.soleParty(e)
			if owner == src {
				panic(fmt.Sprintf("swdir: node %d owner %d re-requesting write", h.mc.ID(), src))
			}
			e.State = directory.WriteTransaction
			e.AckCtr = 1
			h.setSole(e, src)
			h.mc.Send(owner, coherence.Msg{Type: coherence.INV, Addr: m.Addr, Next: -1})
			h.stats.InvalidationsSent++
		default:
			h.mc.Send(src, coherence.Msg{Type: coherence.BUSY, Addr: m.Addr, Next: -1})
		}

	case coherence.REPM:
		switch e.State {
		case directory.ReadWrite:
			e.Value = m.Value
			e.Ptrs.Clear()
			e.State = directory.ReadOnly
		case directory.ReadTransaction, directory.WriteTransaction:
			// Writeback crossed an invalidation: absorb the data; the
			// acknowledgment is still on its way.
			e.Value = m.Value
		default:
			panic(fmt.Sprintf("swdir: node %d REPM in %v", h.mc.ID(), e.State))
		}

	case coherence.UPDATE:
		e.Value = m.Value
		h.completeAck(e, m.Addr)

	case coherence.ACKC:
		h.completeAck(e, m.Addr)

	default:
		panic(fmt.Sprintf("swdir: node %d software FSM got %v", h.mc.ID(), m.Type))
	}
}

// completeAck advances a transaction on receipt of UPDATE or ACKC.
func (h *SoftwareHandler) completeAck(e *directory.Entry, addr directory.Addr) {
	switch e.State {
	case directory.ReadTransaction:
		reader := h.soleParty(e)
		e.State = directory.ReadOnly
		v := h.vector(addr)
		v.Clear()
		v.Add(reader)
		h.mc.Send(reader, coherence.Msg{Type: coherence.RDATA, Addr: addr, Value: e.Value, Next: -1})
	case directory.WriteTransaction:
		e.AckCtr--
		if e.AckCtr < 0 {
			panic(fmt.Sprintf("swdir: node %d ack underflow", h.mc.ID()))
		}
		if e.AckCtr == 0 {
			writer := h.soleParty(e)
			e.State = directory.ReadWrite
			h.mc.Send(writer, coherence.Msg{Type: coherence.WDATA, Addr: addr, Value: e.Value, Next: -1})
		}
	default:
		panic(fmt.Sprintf("swdir: node %d acknowledgment in %v", h.mc.ID(), e.State))
	}
}
