package swdir

import (
	"limitless/internal/directory"
	"limitless/internal/ipi"
)

// Mux routes trapped packets to per-address handlers, falling back to a
// default. This is how one node composes the baseline LimitLESS handler
// with Section 6 extensions: a FIFO-lock handler bound to lock variables,
// an update-mode handler bound to update-mode data, a profiling handler
// bound to locations under study — "the trap handler is part of the
// Alewife software system; many other implementations are possible".
type Mux struct {
	def      PacketHandler
	specific map[directory.Addr]PacketHandler // made on first Bind
}

// NewMux returns a mux with the given default handler.
func NewMux(def PacketHandler) *Mux {
	return &Mux{def: def}
}

// Bind routes packets for addr to h instead of the default.
func (m *Mux) Bind(addr directory.Addr, h PacketHandler) {
	if m.specific == nil {
		m.specific = make(map[directory.Addr]PacketHandler)
	}
	m.specific[addr] = h
}

// Handle implements PacketHandler.
func (m *Mux) Handle(p *ipi.Packet) {
	addr := directory.Addr(p.Operand(0))
	if h, ok := m.specific[addr]; ok {
		h.Handle(p)
		return
	}
	if m.def == nil {
		panic("swdir: mux has no default handler")
	}
	m.def.Handle(p)
}

var (
	_ PacketHandler = (*Mux)(nil)
	_ PacketHandler = (*Handler)(nil)
	_ PacketHandler = (*SoftwareHandler)(nil)
	_ PacketHandler = (*LockHandler)(nil)
	_ PacketHandler = (*UpdateHandler)(nil)
)
