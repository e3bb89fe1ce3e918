package coherence

import (
	"testing"

	"limitless/internal/directory"
	"limitless/internal/ipi"
	"limitless/internal/mesh"
)

// FuzzIPICodec round-trips arbitrary protocol messages through the IPI
// packet format. The codec is the hardware/software boundary of the
// LimitLESS scheme — every trapped message crosses it twice — so any
// lossy field packing here silently corrupts software-handled protocol
// traffic.
func FuzzIPICodec(f *testing.F) {
	f.Add(uint8(RREQ), uint64(0x4440), uint64(0), int32(-1), false, false, uint16(3))
	f.Add(uint8(RDATA), uint64(1<<40), uint64(7), int32(12), false, true, uint16(63))
	f.Add(uint8(UPDATE), ^uint64(0), ^uint64(0), int32(0), true, false, uint16(0))
	f.Add(uint8(RDATA), uint64(16), uint64(9), int32(ChainResupply), false, false, uint16(1))

	f.Fuzz(func(t *testing.T, typ uint8, addr, value uint64, next int32, evict, dup bool, src uint16) {
		if typ >= uint8(numMsgTypes) {
			t.Skip("not a protocol opcode")
		}
		in := &Msg{
			Type:  MsgType(typ),
			Addr:  directory.Addr(addr),
			Next:  mesh.NodeID(next),
			Evict: evict,
			Dup:   dup,
		}
		if in.Type.HasData() {
			in.Value = value
		}
		p := EncodeIPI(new(ipi.Packet), mesh.NodeID(src), in)
		gotSrc, out := DecodeIPI(p)
		if gotSrc != mesh.NodeID(src) {
			t.Errorf("src: got %d, want %d", gotSrc, src)
		}
		if out.Type != in.Type || out.Addr != in.Addr || out.Value != in.Value ||
			out.Evict != in.Evict || out.Dup != in.Dup {
			t.Errorf("round trip mangled fields:\n in  %+v\n out %+v", in, out)
		}
		// The packet format has no encoding for the sentinel Next values
		// (absent = -1, ChainResupply = -2): anything negative decodes as
		// "no next pointer". Non-negative pointers must survive exactly.
		want := in.Next
		if want < 0 {
			want = -1
		}
		if out.Next != want {
			t.Errorf("next: got %d, want %d (encoded %d)", out.Next, want, in.Next)
		}
	})
}
