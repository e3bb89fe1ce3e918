package swdir

import (
	"fmt"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/ipi"
	"limitless/internal/mesh"
)

// UpdateHandler implements the Section 6 update-mode extension: "the
// directory trap modes can also be used to construct objects that update
// (rather than invalidate) cached copies after they are modified."
//
// An update-mode block is only ever cached read-only. Reads are recorded
// in a software vector and answered with RDATA. Stores arrive as
// value-carrying UWREQ packets (the cache controller routes stores to
// registered blocks that way); the handler commits the value to memory,
// multicasts UPDD to every other reader — overwriting their copies in
// place — and acknowledges the writer with UACK. No copy is ever
// invalidated, so producer/consumer data keeps its worker-set warm.
type UpdateHandler struct {
	mc      Controller
	readers map[directory.Addr]*directory.SharerSet
	buf     []directory.Node // sharer-walk buffer
	stats   Stats
	// Updates counts UPDD messages multicast.
	Updates uint64
}

// NewUpdate returns an update-mode handler.
func NewUpdate(mc Controller) *UpdateHandler {
	return &UpdateHandler{mc: mc, readers: make(map[directory.Addr]*directory.SharerSet)}
}

// Register declares addr an update-mode block (Trap-Always at the home).
// Callers must also mark the block update-mode in every cache controller
// so stores travel as UWREQ; the machine package does both.
func (h *UpdateHandler) Register(addr directory.Addr) {
	v := h.mc.Dir().Space().NewSet(-1)
	h.readers[addr] = &v
	h.mc.Dir().Entry(addr).Meta = directory.TrapAlways
}

// Readers returns the current reader-set size for addr.
func (h *UpdateHandler) Readers(addr directory.Addr) int {
	if v, ok := h.readers[addr]; ok {
		return v.Len()
	}
	return 0
}

// Stats returns a copy of the handler's counters.
func (h *UpdateHandler) Stats() Stats { return h.stats }

// Handle implements PacketHandler for update-mode blocks.
func (h *UpdateHandler) Handle(p *ipi.Packet) {
	src, m := h.mc.Decode(p)
	h.stats.PacketsHandled++
	v, ok := h.readers[m.Addr]
	if !ok {
		panic(fmt.Sprintf("swdir: update handler got unregistered address %#x", m.Addr))
	}
	e := h.mc.Dir().Entry(m.Addr)
	defer func() {
		e.Meta = directory.TrapAlways
		h.mc.Release(m.Addr)
	}()

	switch m.Type {
	case coherence.RREQ:
		v.Add(src)
		h.mc.Send(src, coherence.Msg{Type: coherence.RDATA, Addr: m.Addr, Value: e.Value, Next: -1})

	case coherence.UWREQ:
		old := e.Value
		if m.Modify != nil {
			e.Value = m.Modify(old)
		} else {
			e.Value = m.Value
		}
		// Every recorded reader — including the writer, whose own read
		// copy needs the new value too — gets an in-place update. The
		// writer's UPDD precedes its UACK (in-order delivery), so its
		// copy is current by the time the store commits.
		h.buf = v.NodesInto(h.buf[:0])
		for _, k := range h.buf {
			h.mc.Send(mesh.NodeID(k), coherence.Msg{Type: coherence.UPDD, Addr: m.Addr, Value: e.Value, Next: -1})
			h.Updates++
		}
		h.mc.Send(src, coherence.Msg{Type: coherence.UACK, Addr: m.Addr, Value: old, Next: -1})

	case coherence.WREQ:
		// A store from a node that has not registered the block as
		// update-mode: refuse ownership, keep the block read-only.
		panic(fmt.Sprintf("swdir: update-mode block %#x got WREQ from %d; "+
			"register the block in every cache controller", m.Addr, src))

	default:
		panic(fmt.Sprintf("swdir: update handler got %v from %d", m.Type, src))
	}
}
