package coherence

import (
	"limitless/internal/directory"
	"limitless/internal/ipi"
	"limitless/internal/mesh"
)

// Protocol packets forwarded to software travel through the IPI input
// queue in the paper's uniform packet format (Figure 4): the opcode is the
// protocol message type, operand 0 is the block address — "a read miss
// would generate a message with <opcode = RREQ>, <Packet Length = 2>, and
// <Operand0 = Address>" — operand 1 carries flags, and data-bearing
// messages append the block's data words.

const (
	flagEvict   = 1 << 0
	flagHasNext = 1 << 1
	flagDup     = 1 << 2
)

// EncodeIPI packs a protocol message into p, an empty packet (one from
// ipi.Queue.NewPacket reuses its operand and data storage), and returns p.
func EncodeIPI(p *ipi.Packet, src mesh.NodeID, m *Msg) *ipi.Packet {
	flags := uint64(0)
	if m.Evict {
		flags |= flagEvict
	}
	if m.Dup {
		flags |= flagDup
	}
	if m.Next >= 0 {
		flags |= flagHasNext
		flags |= uint64(m.Next) << 8
	}
	p.Src = src
	p.Op = ipi.Opcode(m.Type)
	p.Operands = append(p.Operands[:0], uint64(m.Addr), flags)
	p.Data = p.Data[:0]
	if m.Type.HasData() {
		p.Data = append(p.Data, m.Value)
	}
	if m.Modify != nil {
		p.Sim = m.Modify
	}
	return p
}

// DecodeIPI unpacks an IPI protocol packet back into a message.
func DecodeIPI(p *ipi.Packet) (src mesh.NodeID, m Msg) {
	if p.Op.IsInterrupt() {
		panic("coherence: DecodeIPI on an interprocessor interrupt")
	}
	m = Msg{
		Type: MsgType(p.Op),
		Addr: directory.Addr(p.Operand(0)),
		Next: -1,
	}
	flags := p.Operand(1)
	m.Evict = flags&flagEvict != 0
	m.Dup = flags&flagDup != 0
	if flags&flagHasNext != 0 {
		m.Next = mesh.NodeID(flags >> 8)
	}
	if m.Type.HasData() {
		if len(p.Data) == 0 {
			panic("coherence: data-bearing IPI packet without data")
		}
		m.Value = p.Data[0]
	}
	if fn, ok := p.Sim.(func(uint64) uint64); ok {
		m.Modify = fn
	}
	return p.Src, m
}
