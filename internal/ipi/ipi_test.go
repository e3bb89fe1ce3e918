package ipi

import (
	"testing"
	"testing/quick"
)

func TestOpcodeClasses(t *testing.T) {
	if Opcode(0x0001).IsInterrupt() {
		t.Error("protocol opcode classified as interrupt")
	}
	if !(InterruptBit | 0x0002).IsInterrupt() {
		t.Error("interrupt opcode not classified as interrupt")
	}
}

func TestPacketLen(t *testing.T) {
	p := &Packet{Op: 1, Operands: []uint64{0x100}, Data: []uint64{1, 2, 3, 4}}
	if p.Len() != 6 {
		t.Fatalf("Len = %d, want 6 (header + 1 operand + 4 data)", p.Len())
	}
	empty := &Packet{Op: 1}
	if empty.Len() != 1 {
		t.Fatalf("empty packet Len = %d, want 1", empty.Len())
	}
}

func TestPacketOperandBoundsPanics(t *testing.T) {
	p := &Packet{Op: 1, Operands: []uint64{7}}
	if p.Operand(0) != 7 {
		t.Fatal("Operand(0) wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Operand did not panic")
		}
	}()
	p.Operand(1)
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue()
	for i := uint64(0); i < 3; i++ {
		q.Push(&Packet{Op: Opcode(i)})
	}
	for i := uint64(0); i < 3; i++ {
		p := q.Pop()
		if p == nil || p.Op != Opcode(i) {
			t.Fatalf("pop %d = %v", i, p)
		}
	}
	if q.Pop() != nil {
		t.Fatal("pop of empty queue != nil")
	}
}

// Property: any push/pop sequence preserves FIFO order and never loses or
// duplicates packets.
func TestQueueFIFOProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		q := NewQueue()
		next := Opcode(0)
		expect := Opcode(0)
		for _, push := range ops {
			if push {
				q.Push(&Packet{Op: next})
				next++
			} else if p := q.Pop(); p != nil {
				if p.Op != expect {
					return false
				}
				expect++
			}
		}
		for p := q.Pop(); p != nil; p = q.Pop() {
			if p.Op != expect {
				return false
			}
			expect++
		}
		return expect == next && q.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
