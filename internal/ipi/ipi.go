// Package ipi implements the Interprocessor-Interrupt network interface of
// Section 4.2: the single generic mechanism through which the Alewife
// processor launches and intercepts network packets.
//
// Packets have the paper's uniform structure (Figure 4): a header carrying
// the source processor, packet length and opcode, followed by zero or more
// operand words and data words. Opcodes split into two classes: protocol
// opcodes (cache-coherence traffic, normally produced and consumed by the
// controller but also by the LimitLESS trap handler) and interrupt opcodes
// (MSB set; software-defined interprocessor messages).
//
// The IPI input queue is the buffer through which the controller hands
// packets to the processor, and forwarding a packet to it raises a
// synchronous interrupt. The paper's queue is "large enough for several
// protocol packets and overflows into the network receive queue"; that
// overflow, and the network block it causes, are not timed here.
package ipi

import (
	"fmt"
	"sync"

	"limitless/internal/mesh"
)

// Opcode identifies a packet's type. Opcodes with the most significant bit
// set are interrupt opcodes; the rest are protocol opcodes.
type Opcode uint16

// InterruptBit distinguishes interprocessor interrupts from protocol
// packets (Section 4.2: "Interrupt opcodes have their MSBs set").
const InterruptBit Opcode = 0x8000

// IsInterrupt reports whether the opcode is an interprocessor-interrupt
// opcode rather than a cache-coherence protocol opcode.
func (op Opcode) IsInterrupt() bool { return op&InterruptBit != 0 }

// Packet is the uniform Alewife packet as seen at its destination (routing
// information already stripped by the network).
type Packet struct {
	Src      mesh.NodeID
	Op       Opcode
	Operands []uint64
	Data     []uint64
	// Sim carries simulator-only payload that has no wire encoding (the
	// read-modify-write closure of fetch-and-op requests; a real machine
	// would encode a fetch-op opcode instead). It does not count toward
	// the packet length.
	Sim any
}

// Len returns the packet length in words (= flits): one header word plus
// operands plus data.
func (p *Packet) Len() int { return 1 + len(p.Operands) + len(p.Data) }

// Operand returns operand i, panicking with a descriptive message when the
// packet is malformed — protocol bugs should fail loudly in simulation.
func (p *Packet) Operand(i int) uint64 {
	if i < 0 || i >= len(p.Operands) {
		panic(fmt.Sprintf("ipi: packet op=%#x from %d has %d operands, want index %d",
			p.Op, p.Src, len(p.Operands), i))
	}
	return p.Operands[i]
}

// Queue is the IPI input queue: one FIFO of packets waiting for the
// processor. In hardware a dedicated buffer holds several packets and
// overflows into the network receive queue, which blocks the network; this
// model times neither the buffer nor the block, so the queue is unbounded.
type Queue struct {
	pkts   []*Packet
	maxLen int // high-water mark of queued packets
	// free holds handled packets for NewPacket to refill (see Done).
	free []*Packet
}

// queuePool recycles queues, with their buffers and free packets, across
// machines: Recycle hands a queue back and NewQueue draws on it.
var queuePool sync.Pool

// NewQueue returns an empty queue.
func NewQueue() *Queue {
	q, _ := queuePool.Get().(*Queue)
	if q == nil {
		q = new(Queue)
	}
	*q = Queue{pkts: q.pkts, free: q.free}
	return q
}

// NewPacket returns an empty packet for the producer to fill and Push: one
// the consumer handed back with Done, its Operands and Data emptied with
// their capacity kept, or a new one.
func (q *Queue) NewPacket() *Packet {
	n := len(q.free)
	if n == 0 {
		return new(Packet)
	}
	p := q.free[n-1]
	q.free[n-1] = nil
	q.free = q.free[:n-1]
	return p
}

// Done hands back a popped packet once its handler has returned, for
// NewPacket to reuse; nothing may read the packet afterwards.
func (q *Queue) Done(p *Packet) {
	*p = Packet{Operands: p.Operands[:0], Data: p.Data[:0]}
	q.free = append(q.free, p)
}

// Recycle empties the queue, keeping the packets still queued as free
// ones, and hands it to the pool NewQueue draws on. The queue must not be
// used afterwards.
func (q *Queue) Recycle() {
	for _, p := range q.pkts {
		q.Done(p)
	}
	clear(q.pkts[:cap(q.pkts)])
	*q = Queue{pkts: q.pkts[:0], free: q.free}
	queuePool.Put(q)
}

// Push enqueues a packet at the tail.
func (q *Queue) Push(p *Packet) {
	q.pkts = append(q.pkts, p)
	if n := len(q.pkts); n > q.maxLen {
		q.maxLen = n
	}
}

// Pop removes and returns the packet at the head of the queue, or nil when
// it is empty.
func (q *Queue) Pop() *Packet {
	if len(q.pkts) == 0 {
		return nil
	}
	p := q.pkts[0]
	copy(q.pkts, q.pkts[1:])
	q.pkts = q.pkts[:len(q.pkts)-1]
	return p
}

// Len returns the number of queued packets.
func (q *Queue) Len() int { return len(q.pkts) }

// MaxLen returns the deepest the queue has ever been — a diagnostic for
// watchdog dumps (a wedged software handler shows up as a high-water IPI
// queue that never drains).
func (q *Queue) MaxLen() int { return q.maxLen }
