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
// packets to the processor; it is "large enough for several protocol
// packets and overflows into the network receive queue", and forwarding a
// packet to it raises a synchronous interrupt.
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

// Queue is the IPI input queue: a bounded FIFO that overflows into an
// unbounded backing queue (modelling spill into the network receive queue,
// which in hardware blocks the network — the condition that makes IPI
// traps synchronous).
type Queue struct {
	cap      int
	fast     []*Packet // the dedicated IPI buffer
	spill    []*Packet // overflow into the network receive queue
	overflow uint64    // times a push spilled
	pushes   uint64
	maxLen   int // high-water mark of queued packets
	// free holds handled packets for NewPacket to refill (see Done).
	free []*Packet
}

// queuePool recycles queues, with their buffers and free packets, across
// machines: Recycle hands a queue back and NewQueue draws on it.
var queuePool sync.Pool

// NewQueue returns a queue whose dedicated buffer holds capacity packets.
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		panic("ipi: queue capacity must be >= 1")
	}
	q, _ := queuePool.Get().(*Queue)
	if q == nil {
		q = new(Queue)
	}
	*q = Queue{cap: capacity, fast: q.fast, spill: q.spill, free: q.free}
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
	for _, p := range q.fast {
		q.Done(p)
	}
	for _, p := range q.spill {
		q.Done(p)
	}
	clear(q.fast[:cap(q.fast)])
	clear(q.spill[:cap(q.spill)])
	*q = Queue{fast: q.fast[:0], spill: q.spill[:0], free: q.free}
	queuePool.Put(q)
}

// Push enqueues a packet. It reports whether the packet spilled past the
// dedicated buffer into the receive queue (the situation that, in
// hardware, blocks the network and forces a synchronous trap).
func (q *Queue) Push(p *Packet) (spilled bool) {
	q.pushes++
	if len(q.fast) < q.cap && len(q.spill) == 0 {
		q.fast = append(q.fast, p)
		q.note()
		return false
	}
	q.spill = append(q.spill, p)
	q.overflow++
	q.note()
	return true
}

// note records the current depth into the high-water mark.
func (q *Queue) note() {
	if n := q.Len(); n > q.maxLen {
		q.maxLen = n
	}
}

// Pop removes and returns the packet at the head of the queue, refilling
// the dedicated buffer from the spill queue. It returns nil when empty.
func (q *Queue) Pop() *Packet {
	if len(q.fast) == 0 {
		return nil
	}
	p := q.fast[0]
	copy(q.fast, q.fast[1:])
	q.fast = q.fast[:len(q.fast)-1]
	if len(q.spill) > 0 {
		q.fast = append(q.fast, q.spill[0])
		copy(q.spill, q.spill[1:])
		q.spill = q.spill[:len(q.spill)-1]
	}
	return p
}

// Peek returns the head packet without removing it, or nil when empty.
func (q *Queue) Peek() *Packet {
	if len(q.fast) == 0 {
		return nil
	}
	return q.fast[0]
}

// Len returns the number of queued packets (dedicated buffer + spill).
func (q *Queue) Len() int { return len(q.fast) + len(q.spill) }

// Overflows returns how many pushes spilled into the receive queue.
func (q *Queue) Overflows() uint64 { return q.overflow }

// Pushes returns the total number of packets ever enqueued.
func (q *Queue) Pushes() uint64 { return q.pushes }

// MaxLen returns the deepest the queue has ever been — a diagnostic for
// watchdog dumps (a wedged software handler shows up as a high-water IPI
// queue that never drains).
func (q *Queue) MaxLen() int { return q.maxLen }
