package swdir

import (
	"fmt"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/ipi"
	"limitless/internal/mesh"
)

// LockHandler synthesizes the FIFO lock data type of Section 6: "the trap
// handler can buffer write requests for a programmer-specified variable
// and grant the requests on a first-come, first-serve basis."
//
// A lock variable lives in Trap-Always mode. Write requests that find the
// variable owned are buffered — not BUSY-bounced — and granted in arrival
// order: the handler invalidates the current holder, waits for its data to
// return, and hands write permission to the head of the queue. Compare the
// base protocol, where contending writers retry after BUSY and ordering is
// whoever's retry lands first.
type LockHandler struct {
	mc    Controller
	locks map[directory.Addr]*lockState
	// Grants records the order in which write permission was handed out,
	// for fairness analysis.
	Grants []mesh.NodeID
	stats  Stats
}

type lockState struct {
	owner        mesh.NodeID // -1 when free
	queue        []mesh.NodeID
	transferring bool
}

// NewLock returns a FIFO-lock handler. Bind lock addresses with Register
// and route their packets here through a Mux.
func NewLock(mc Controller) *LockHandler {
	return &LockHandler{mc: mc, locks: make(map[directory.Addr]*lockState)}
}

// Register declares addr a FIFO lock variable, placing its directory entry
// in Trap-Always mode so every request reaches this handler.
func (h *LockHandler) Register(addr directory.Addr) {
	h.locks[addr] = &lockState{owner: -1}
	e := h.mc.Dir().Entry(addr)
	e.Meta = directory.TrapAlways
}

// QueueLen returns the number of buffered writers for addr.
func (h *LockHandler) QueueLen(addr directory.Addr) int {
	if s, ok := h.locks[addr]; ok {
		return len(s.queue)
	}
	return 0
}

// Stats returns a copy of the handler's counters.
func (h *LockHandler) Stats() Stats { return h.stats }

// Handle implements PacketHandler for lock variables.
func (h *LockHandler) Handle(p *ipi.Packet) {
	src, m := h.mc.Decode(p)
	h.stats.PacketsHandled++
	s, ok := h.locks[m.Addr]
	if !ok {
		panic(fmt.Sprintf("swdir: lock handler got unregistered address %#x", m.Addr))
	}
	e := h.mc.Dir().Entry(m.Addr)
	defer func() {
		e.Meta = directory.TrapAlways
		h.mc.Release(m.Addr)
	}()

	switch m.Type {
	case coherence.WREQ:
		if s.owner < 0 && !s.transferring {
			h.grant(e, m.Addr, s, src)
			return
		}
		// Buffer the request; kick off a transfer if none is in flight.
		s.queue = append(s.queue, src)
		if !s.transferring {
			s.transferring = true
			h.mc.Send(s.owner, coherence.Msg{Type: coherence.INV, Addr: m.Addr, Next: -1})
			h.stats.InvalidationsSent++
		}

	case coherence.UPDATE:
		e.Value = m.Value
		h.handBack(e, m.Addr, s)

	case coherence.ACKC:
		h.handBack(e, m.Addr, s)

	case coherence.REPM:
		// The holder evicted the lock block: it is free again.
		e.Value = m.Value
		s.owner = -1
		e.State = directory.ReadOnly
		e.Ptrs.Clear()
		if len(s.queue) > 0 && !s.transferring {
			next := s.queue[0]
			s.queue = s.queue[1:]
			h.grant(e, m.Addr, s, next)
		}

	case coherence.RREQ:
		// Locks are write-accessed; a read finds out who holds it only by
		// retrying (BUSY keeps the variable out of read-only caches).
		h.mc.Send(src, coherence.Msg{Type: coherence.BUSY, Addr: m.Addr, Next: -1})

	default:
		panic(fmt.Sprintf("swdir: lock handler got %v from %d", m.Type, src))
	}
}

// grant hands write permission for the lock block to n.
func (h *LockHandler) grant(e *directory.Entry, addr directory.Addr, s *lockState, n mesh.NodeID) {
	s.owner = n
	s.transferring = false
	e.State = directory.ReadWrite
	e.Ptrs.Clear()
	e.Local = false
	e.Ptrs.Add(n)
	h.Grants = append(h.Grants, n)
	h.stats.WriteTerminations++
	h.mc.Send(n, coherence.Msg{Type: coherence.WDATA, Addr: addr, Value: e.Value, Next: -1})
}

// handBack runs when the current holder's copy has been reclaimed: grant
// the head of the queue and, if more writers wait, immediately start
// reclaiming again.
func (h *LockHandler) handBack(e *directory.Entry, addr directory.Addr, s *lockState) {
	if len(s.queue) == 0 {
		// Queue drained while the transfer was in flight (cannot happen
		// under FIFO buffering, but be safe): the lock is free.
		s.owner = -1
		s.transferring = false
		e.State = directory.ReadOnly
		e.Ptrs.Clear()
		return
	}
	next := s.queue[0]
	s.queue = s.queue[1:]
	h.grant(e, addr, s, next)
	if len(s.queue) > 0 {
		s.transferring = true
		h.mc.Send(s.owner, coherence.Msg{Type: coherence.INV, Addr: addr, Next: -1})
		h.stats.InvalidationsSent++
	}
}
