package coherence_test

import (
	"testing"
	"testing/quick"

	"limitless/internal/cache"
	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/ipi"
	"limitless/internal/mesh"
)

// --- LimitLESS: overflow trapping, meta states, software termination ---

func TestLimitLESSOverflowTrapsToSoftware(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.LimitLESS, 2))
	r.read(2, blk)
	r.read(3, blk)
	// Third reader overflows the two hardware pointers.
	if got := r.read(4, blk); got != 0 {
		t.Fatalf("overflowing read returned %d", got)
	}
	e := r.entry(blk)
	if e.Meta != directory.TrapOnWrite {
		t.Fatalf("meta = %v, want Trap-On-Write after overflow handling", e.Meta)
	}
	st := r.nodes[1].mc.Stats()
	if st.Traps != 1 || st.PointerOverflows != 1 {
		t.Fatalf("traps=%d overflows=%d, want 1/1", st.Traps, st.PointerOverflows)
	}
	// The trap handler emptied the hardware pointers into its vector, so
	// hardware absorbs further readers without touching the old ones.
	if e.Ptrs.Len() != 0 {
		t.Fatalf("hardware pointers not emptied: %v", e.Ptrs.Nodes())
	}
	r.read(5, blk)
	r.read(6, blk)
	if r.nodes[1].mc.Stats().Traps != 1 {
		t.Fatal("reads after emptying trapped again prematurely")
	}
	// No reader lost its copy: LimitLESS never evicts.
	for _, id := range []mesh.NodeID{2, 3, 4, 5, 6} {
		if r.nodes[id].cc.Cache().State(blk) != cache.ReadOnly {
			t.Fatalf("reader %d lost its copy", id)
		}
	}
}

func TestLimitLESSWriteTermination(t *testing.T) {
	// Section 4.4: a trapped write empties the pointers, invalidates every
	// recorded copy, frees the vector, and returns the line to hardware in
	// Normal mode / Write-Transaction state.
	r := newRig(t, 3, 3, params(coherence.LimitLESS, 2))
	readers := []mesh.NodeID{2, 3, 4, 5, 6}
	for _, id := range readers {
		r.read(id, blk)
	}
	r.write(7, blk, 77)
	e := r.entry(blk)
	if e.Meta != directory.Normal {
		t.Fatalf("meta = %v, want Normal after write termination", e.Meta)
	}
	if e.State != directory.ReadWrite || !e.Ptrs.Contains(7) {
		t.Fatalf("state=%v ptrs=%v", e.State, e.Ptrs.Nodes())
	}
	for _, id := range readers {
		if r.nodes[id].cc.Cache().State(blk) != cache.Invalid {
			t.Fatalf("reader %d survived the software write termination", id)
		}
	}
	// Every reader saw exactly one INV.
	var invs uint64
	for _, n := range r.nodes {
		invs += n.cc.Stats().Received[coherence.INV]
	}
	if invs != uint64(len(readers)) {
		t.Fatalf("INVs delivered = %d, want %d", invs, len(readers))
	}
	// Subsequent reads find a normal hardware-managed block with the data.
	if got := r.read(2, blk); got != 77 {
		t.Fatalf("read after termination = %d, want 77", got)
	}
}

func TestLimitLESSTrapOnWriteReadsStayInHardware(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.LimitLESS, 2))
	for _, id := range []mesh.NodeID{2, 3, 4} {
		r.read(id, blk) // third read overflows -> Trap-On-Write
	}
	trapsAfterOverflow := r.nodes[1].mc.Stats().Traps
	r.read(5, blk) // handled by hardware (pointers were emptied)
	if got := r.nodes[1].mc.Stats().Traps; got != trapsAfterOverflow {
		t.Fatalf("read in Trap-On-Write trapped (traps %d -> %d)", trapsAfterOverflow, got)
	}
}

func TestLimitLESSNeverEvicts(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.LimitLESS, 1))
	for id := mesh.NodeID(2); id < 9; id++ {
		r.read(id, blk)
	}
	if got := r.nodes[1].mc.Stats().Evictions; got != 0 {
		t.Fatalf("LimitLESS evicted %d pointers", got)
	}
}

func TestSoftwareOnlyHandlesEverything(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.SoftwareOnly, 1))
	r.read(2, blk)
	r.write(3, blk, 9)
	if got := r.read(4, blk); got != 9 {
		t.Fatalf("read = %d, want 9", got)
	}
	st := r.nodes[1].mc.Stats()
	if st.Traps == 0 {
		t.Fatal("software-only scheme took no traps")
	}
	// The hardware FSM never ran a data-bearing reply itself: every RREQ
	// and WREQ was forwarded.
	if st.Traps < st.Received[coherence.RREQ] {
		t.Fatalf("traps=%d < RREQs=%d: some requests bypassed software", st.Traps, st.Received[coherence.RREQ])
	}
	if r.entry(blk).Meta != directory.TrapAlways {
		t.Fatalf("meta = %v, want Trap-Always", r.entry(blk).Meta)
	}
}

// --- Figure 3.1 model: the trapped read costs roughly T_s more ---

func TestOverflowReadLatencyIncludesTs(t *testing.T) {
	p := params(coherence.LimitLESS, 2)
	r := newRig(t, 3, 3, p)
	r.read(2, blk)
	r.read(3, blk)

	// Nodes 4 and 0 are equidistant from the home (node 1), so the only
	// difference between their read latencies is the software excursion.
	before := r.eng.Now()
	r.read(4, blk) // overflow read: trap path
	overflowLat := r.eng.Now() - before

	before = r.eng.Now()
	r.read(0, blk) // hardware read (pointers emptied)
	hwLat := r.eng.Now() - before

	extra := overflowLat - hwLat
	ts := p.Timing.TrapService + coherence.TrapEntry
	if extra < ts || extra > ts+30 {
		t.Fatalf("software overflow cost %d cycles over hardware, want about %d", extra, ts)
	}
}

// --- Update mode (Section 6) plumbing at the controller level ---

func TestUpdateModeStoreTravelsAsUWREQ(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.LimitLESS, 4))
	r.nodes[2].cc.SetUpdateMode(blk, true)
	done := false
	r.nodes[2].cc.Access(coherence.Request{Op: coherence.Store, Addr: blk, Value: 3, Shared: true,
		Done: func(uint64) { done = true }})
	r.eng.Run()
	if !done {
		t.Fatal("update-mode store never completed")
	}
	if got := r.nodes[2].cc.Stats().Sent[coherence.UWREQ]; got != 1 {
		t.Fatalf("UWREQ sent = %d, want 1", got)
	}
	if r.entry(blk).Value != 3 {
		t.Fatalf("memory value = %d, want 3", r.entry(blk).Value)
	}
}

// --- IPI codec ---

func TestIPICodecRoundTrip(t *testing.T) {
	// Every case reuses the packet the previous one handed back, as the
	// processor's trap path does, so a field left over from an earlier
	// shape would show.
	q := ipi.NewQueue()
	prop := func(ty uint8, addr uint32, val uint64, evict bool, next int8) bool {
		m := &coherence.Msg{
			Type:  coherence.MsgType(ty % uint8(coherence.NumMsgTypes)),
			Addr:  directory.Addr(addr),
			Next:  -1,
			Evict: evict,
		}
		if m.Type.HasData() {
			m.Value = val
		}
		if next >= 0 {
			m.Next = mesh.NodeID(next)
		}
		src := mesh.NodeID(val % 64)
		pkt := coherence.EncodeIPI(q.NewPacket(), src, m)
		defer q.Done(pkt)
		if len(pkt.Operands) != 2 || (len(pkt.Data) == 1) != m.Type.HasData() {
			return false
		}
		gotSrc, got := coherence.DecodeIPI(pkt)
		if gotSrc != src || got.Type != m.Type || got.Addr != m.Addr ||
			got.Evict != m.Evict || got.Next != m.Next {
			return false
		}
		if m.Type.HasData() && got.Value != m.Value {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestIPIPacketShapeMatchesPaper(t *testing.T) {
	// "A read miss would generate a message with <opcode = RREQ>,
	// <Packet Length = 2>, and <Operand0 = Address>."
	m := &coherence.Msg{Type: coherence.RREQ, Addr: 0x123, Next: -1}
	pkt := coherence.EncodeIPI(new(ipi.Packet), 4, m)
	if pkt.Operand(0) != 0x123 {
		t.Fatalf("operand 0 = %#x, want the address", pkt.Operand(0))
	}
	if pkt.Op.IsInterrupt() {
		t.Fatal("protocol opcode classified as interrupt")
	}
	if m.Flits() != 2 {
		t.Fatalf("RREQ length = %d flits, want 2", m.Flits())
	}
	data := &coherence.Msg{Type: coherence.RDATA, Addr: 0x123, Value: 9, Next: -1}
	if data.Flits() != 6 {
		t.Fatalf("RDATA length = %d flits, want 6 (header+addr+4 data words)", data.Flits())
	}
}

func TestDecodeIPIRejectsInterrupts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DecodeIPI accepted an interrupt packet")
		}
	}()
	coherence.DecodeIPI(&ipi.Packet{Op: ipi.InterruptBit | 1, Operands: []uint64{0, 0}})
}

// --- Message vocabulary ---

func TestMsgTypeProperties(t *testing.T) {
	dataMsgs := map[coherence.MsgType]bool{
		coherence.REPM: true, coherence.UPDATE: true, coherence.RDATA: true,
		coherence.WDATA: true, coherence.UDATA: true, coherence.UWREQ: true,
		coherence.UPDD: true,
	}
	toMem := map[coherence.MsgType]bool{
		coherence.RREQ: true, coherence.WREQ: true, coherence.REPM: true,
		coherence.UPDATE: true, coherence.ACKC: true, coherence.URREQ: true,
		coherence.UWREQ: true,
	}
	for ty := coherence.MsgType(0); int(ty) < coherence.NumMsgTypes; ty++ {
		if ty.HasData() != dataMsgs[ty] {
			t.Errorf("%v.HasData() = %v, want %v", ty, ty.HasData(), dataMsgs[ty])
		}
		if ty.ToMemory() != toMem[ty] {
			t.Errorf("%v.ToMemory() = %v, want %v", ty, ty.ToMemory(), toMem[ty])
		}
		if ty.String() == "" {
			t.Errorf("%v has empty name", int(ty))
		}
	}
}

func TestSchemeAndOutcomeStrings(t *testing.T) {
	for _, s := range []coherence.Scheme{coherence.FullMap, coherence.LimitedNB,
		coherence.LimitLESS, coherence.SoftwareOnly, coherence.PrivateOnly, coherence.Chained} {
		if s.String() == "" {
			t.Errorf("scheme %d has empty name", s)
		}
	}
	for _, o := range []coherence.Outcome{coherence.OutcomeHit, coherence.OutcomeMissLocal, coherence.OutcomeMissRemote} {
		if o.String() == "" {
			t.Errorf("outcome %d has empty name", o)
		}
	}
}

// --- Determinism at the controller level ---

func TestRigDeterminism(t *testing.T) {
	run := func() (sim uint64, msgs uint64) {
		r := newRig(t, 3, 3, params(coherence.LimitLESS, 2))
		for id := mesh.NodeID(2); id < 8; id++ {
			id := id
			r.nodes[id].cc.Access(coherence.Request{Op: coherence.Load, Addr: blk, Shared: true, Done: func(uint64) {}})
			r.nodes[id].cc.Access(coherence.Request{Op: coherence.Store, Addr: blk, Value: uint64(id), Shared: true, Done: func(uint64) {}})
		}
		r.eng.Run()
		var total uint64
		for _, n := range r.nodes {
			s := n.mc.Stats()
			total += s.TotalSent()
		}
		return uint64(r.eng.Now()), total
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

// --- Modify-grant optimization (footnote 1) ---

func TestModifyGrantUpgradesWithoutData(t *testing.T) {
	p := params(coherence.FullMap, 0)
	p.ModifyGrant = true
	r := newRig(t, 3, 3, p)
	r.read(4, blk)     // sole reader
	r.write(4, blk, 9) // upgrade: should travel as MODG
	if got := r.nodes[1].mc.Stats().Sent[coherence.MODG]; got != 1 {
		t.Fatalf("MODG sent = %d, want 1", got)
	}
	if got := r.nodes[1].mc.Stats().Sent[coherence.WDATA]; got != 0 {
		t.Fatalf("WDATA sent = %d, want 0 (grant carried no data)", got)
	}
	if v, _ := r.nodes[4].cc.Cache().Read(blk); v != 9 {
		t.Fatalf("owner's value = %d, want 9", v)
	}
	// The upgraded copy must behave like any Read-Write line.
	if got := r.read(5, blk); got != 5 && got != 9 {
		t.Fatalf("reader after upgrade = %d", got)
	}
}

func TestModifyGrantColdWriteStillGetsData(t *testing.T) {
	p := params(coherence.FullMap, 0)
	p.ModifyGrant = true
	r := newRig(t, 3, 3, p)
	r.write(4, blk, 9) // no prior copy: needs WDATA
	if got := r.nodes[1].mc.Stats().Sent[coherence.WDATA]; got != 1 {
		t.Fatalf("WDATA sent = %d, want 1 for a cold write", got)
	}
	if got := r.nodes[1].mc.Stats().Sent[coherence.MODG]; got != 0 {
		t.Fatalf("MODG sent = %d, want 0", got)
	}
}

func TestModifyGrantRMWKeepsOldValue(t *testing.T) {
	p := params(coherence.FullMap, 0)
	p.ModifyGrant = true
	r := newRig(t, 3, 3, p)
	r.write(4, blk, 10)
	r.read(4, blk) // still owner? owner keeps copy; this is a hit
	// Move ownership away and back to force RO state at node 4.
	r.read(5, blk) // node 4 invalidated (read transaction)
	r.read(4, blk) // node 4 reacquires a read copy
	done := false
	var old uint64
	r.nodes[4].cc.Access(coherence.Request{
		Op: coherence.Store, Addr: blk, Shared: true,
		Modify: func(v uint64) uint64 { return v * 3 },
		Done:   func(v uint64) { old = v; done = true },
	})
	r.eng.Run()
	if !done {
		t.Fatal("RMW upgrade never completed")
	}
	if old != 10 {
		t.Fatalf("RMW old value = %d, want 10", old)
	}
	if v, _ := r.nodes[4].cc.Cache().Read(blk); v != 30 {
		t.Fatalf("RMW result = %d, want 30", v)
	}
}
