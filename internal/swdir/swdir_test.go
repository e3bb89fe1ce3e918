package swdir_test

import (
	"testing"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/ipi"
	"limitless/internal/mesh"
	"limitless/internal/swdir"
)

// fakeCtl is a stand-in memory controller that records software sends.
type fakeCtl struct {
	id       mesh.NodeID
	nodes    int
	dir      *directory.Store
	sent     []sent
	released []directory.Addr
}

type sent struct {
	dst mesh.NodeID
	msg coherence.Msg
}

func newFake(nodes int, ptrs int) *fakeCtl {
	return &fakeCtl{
		id:    0,
		nodes: nodes,
		dir:   directory.NewStore(directory.NewSpace(nodes), ptrs),
	}
}

func (f *fakeCtl) ID() mesh.NodeID       { return f.id }
func (f *fakeCtl) Nodes() int            { return f.nodes }
func (f *fakeCtl) Dir() *directory.Store { return f.dir }
func (f *fakeCtl) Decode(p *ipi.Packet) (mesh.NodeID, *coherence.Msg) {
	src, m := coherence.DecodeIPI(p)
	return src, &m
}
func (f *fakeCtl) Send(dst mesh.NodeID, m coherence.Msg) {
	f.sent = append(f.sent, sent{dst, m})
}
func (f *fakeCtl) Release(addr directory.Addr) { f.released = append(f.released, addr) }

func (f *fakeCtl) byType(ty coherence.MsgType) []sent {
	var out []sent
	for _, s := range f.sent {
		if s.msg.Type == ty {
			out = append(out, s)
		}
	}
	return out
}

const addr = directory.Addr(0x40)

// trap simulates the controller forwarding a packet to software.
func trap(f *fakeCtl, h swdir.PacketHandler, src mesh.NodeID, m *coherence.Msg) {
	e := f.dir.Entry(m.Addr)
	e.Meta = directory.TransInProgress
	e.Pending++
	h.Handle(coherence.EncodeIPI(new(ipi.Packet), src, m))
}

func TestHandlerOverflowBuildsVector(t *testing.T) {
	f := newFake(16, 2)
	h := swdir.New(f)
	e := f.dir.Entry(addr)
	e.Ptrs.Add(3)
	e.Ptrs.Add(4)
	e.Value = 9

	trap(f, h, 5, &coherence.Msg{Type: coherence.RREQ, Addr: addr, Next: -1})

	if e.Ptrs.Len() != 0 {
		t.Fatalf("hardware pointers not emptied: %v", e.Ptrs.Nodes())
	}
	if e.Meta != directory.TrapOnWrite {
		t.Fatalf("meta = %v, want Trap-On-Write", e.Meta)
	}
	if got := h.WorkerSet(addr); got != 3 {
		t.Fatalf("worker set = %d, want 3 (two emptied + requester)", got)
	}
	rd := f.byType(coherence.RDATA)
	if len(rd) != 1 || rd[0].dst != 5 || rd[0].msg.Value != 9 {
		t.Fatalf("RDATA = %+v", rd)
	}
	if len(f.released) != 1 || f.released[0] != addr {
		t.Fatalf("released = %v", f.released)
	}
	st := h.Stats()
	if st.OverflowTraps != 1 || st.VectorsAllocated != 1 || h.Resident() != 1 {
		t.Fatalf("stats = %+v resident=%d", st, h.Resident())
	}
}

func TestHandlerSecondOverflowReusesVector(t *testing.T) {
	f := newFake(16, 2)
	h := swdir.New(f)
	e := f.dir.Entry(addr)
	e.Ptrs.Add(3)
	e.Ptrs.Add(4)
	trap(f, h, 5, &coherence.Msg{Type: coherence.RREQ, Addr: addr, Next: -1})
	// Hardware refills with two more readers, then overflows again.
	e.Ptrs.Add(6)
	e.Ptrs.Add(7)
	trap(f, h, 8, &coherence.Msg{Type: coherence.RREQ, Addr: addr, Next: -1})
	if got := h.WorkerSet(addr); got != 6 {
		t.Fatalf("worker set = %d, want 6", got)
	}
	if h.Stats().VectorsAllocated != 1 {
		t.Fatalf("allocated %d vectors, want 1 (hash-table reuse)", h.Stats().VectorsAllocated)
	}
}

func TestHandlerLocalBitEmptiedIntoVector(t *testing.T) {
	f := newFake(16, 1)
	h := swdir.New(f)
	e := f.dir.Entry(addr)
	e.Ptrs.Add(3)
	e.Local = true // home node holds a copy too
	trap(f, h, 5, &coherence.Msg{Type: coherence.RREQ, Addr: addr, Next: -1})
	if e.Local {
		t.Fatal("Local Bit not emptied")
	}
	if got := h.WorkerSet(addr); got != 3 { // {3, home 0, 5}
		t.Fatalf("worker set = %d, want 3", got)
	}
}

func TestHandlerWriteTermination(t *testing.T) {
	f := newFake(16, 2)
	h := swdir.New(f)
	e := f.dir.Entry(addr)
	e.Ptrs.Add(3)
	e.Ptrs.Add(4)
	trap(f, h, 5, &coherence.Msg{Type: coherence.RREQ, Addr: addr, Next: -1}) // vector {3,4,5}
	f.sent = nil

	trap(f, h, 9, &coherence.Msg{Type: coherence.WREQ, Addr: addr, Next: -1})

	invs := f.byType(coherence.INV)
	if len(invs) != 3 {
		t.Fatalf("INVs = %d, want 3", len(invs))
	}
	if e.State != directory.WriteTransaction || e.AckCtr != 3 {
		t.Fatalf("state=%v ackctr=%d", e.State, e.AckCtr)
	}
	if e.Meta != directory.Normal {
		t.Fatalf("meta = %v, want Normal (returned to hardware control)", e.Meta)
	}
	if !e.Ptrs.Contains(9) || e.Ptrs.Len() != 1 {
		t.Fatalf("requester not recorded: %v", e.Ptrs.Nodes())
	}
	if h.Resident() != 0 {
		t.Fatal("vector not freed after write termination")
	}
	if h.Stats().VectorsFreed != 1 {
		t.Fatalf("VectorsFreed = %d", h.Stats().VectorsFreed)
	}
}

func TestHandlerWriteTerminationNoOtherCopies(t *testing.T) {
	// The requester is the only recorded reader: grant immediately.
	f := newFake(16, 2)
	h := swdir.New(f)
	e := f.dir.Entry(addr)
	e.Ptrs.Add(5)
	e.Ptrs.Add(6)
	trap(f, h, 7, &coherence.Msg{Type: coherence.RREQ, Addr: addr, Next: -1}) // vector {5,6,7}
	// All three readers drop their copies... then 5 writes; 6,7 INVed.
	f.sent = nil
	trap(f, h, 5, &coherence.Msg{Type: coherence.WREQ, Addr: addr, Next: -1})
	if got := len(f.byType(coherence.INV)); got != 2 {
		t.Fatalf("INVs = %d, want 2 (requester's own copy spared)", got)
	}

	// Now a fresh block with only the requester recorded.
	f2 := newFake(16, 1)
	h2 := swdir.New(f2)
	e2 := f2.dir.Entry(addr)
	e2.Ptrs.Add(5)
	trap(f2, h2, 4, &coherence.Msg{Type: coherence.RREQ, Addr: addr, Next: -1}) // vector {5,4}
	f2.sent = nil
	// 4 and 5: write by 4 invalidates only 5... but if vector held just
	// the writer, the grant is immediate:
	f3 := newFake(16, 1)
	h3 := swdir.New(f3)
	e3 := f3.dir.Entry(addr)
	e3.Value = 31
	e3.Ptrs.Add(8)
	trap(f3, h3, 8, &coherence.Msg{Type: coherence.WREQ, Addr: addr, Next: -1})
	wd := f3.byType(coherence.WDATA)
	if len(wd) != 1 || wd[0].dst != 8 || wd[0].msg.Value != 31 {
		t.Fatalf("immediate grant WDATA = %+v", wd)
	}
	if e3.State != directory.ReadWrite {
		t.Fatalf("state = %v, want Read-Write", e3.State)
	}
}

func TestHandlerObserverSeesWorkerSets(t *testing.T) {
	f := newFake(16, 1)
	h := swdir.New(f)
	var observed []int
	h.SetObserver(func(_ mesh.NodeID, _ *coherence.Msg, ws int) { observed = append(observed, ws) })
	e := f.dir.Entry(addr)
	e.Ptrs.Add(3)
	trap(f, h, 4, &coherence.Msg{Type: coherence.RREQ, Addr: addr, Next: -1})
	if len(observed) != 1 || observed[0] != 2 {
		t.Fatalf("observed = %v, want [2]", observed)
	}
}

func TestMuxRoutesByAddress(t *testing.T) {
	f := newFake(16, 2)
	def := swdir.New(f)
	mux := swdir.NewMux(def)
	lock := swdir.NewLock(f)
	lockAddr := directory.Addr(0x99)
	lock.Register(lockAddr)
	mux.Bind(lockAddr, lock)

	// A lock-address WREQ goes to the lock handler.
	trap(f, mux, 3, &coherence.Msg{Type: coherence.WREQ, Addr: lockAddr, Next: -1})
	if lock.Stats().PacketsHandled != 1 {
		t.Fatal("lock handler did not receive its packet")
	}
	if def.Stats().PacketsHandled != 0 {
		t.Fatal("default handler stole the lock packet")
	}
	// Any other address goes to the default handler.
	e := f.dir.Entry(addr)
	e.Ptrs.Add(1)
	e.Ptrs.Add(2)
	trap(f, mux, 5, &coherence.Msg{Type: coherence.RREQ, Addr: addr, Next: -1})
	if def.Stats().PacketsHandled != 1 {
		t.Fatal("default handler did not receive the unbound address's packet")
	}
}

func TestMuxWithoutDefaultPanics(t *testing.T) {
	mux := swdir.NewMux(nil)
	defer func() {
		if recover() == nil {
			t.Error("mux with no default did not panic")
		}
	}()
	mux.Handle(coherence.EncodeIPI(new(ipi.Packet), 0, &coherence.Msg{Type: coherence.RREQ, Addr: 1, Next: -1}))
}

func TestLockHandlerGrantsFIFO(t *testing.T) {
	f := newFake(16, 2)
	h := swdir.NewLock(f)
	lockAddr := directory.Addr(0x77)
	h.Register(lockAddr)
	e := f.dir.Entry(lockAddr)
	if e.Meta != directory.TrapAlways {
		t.Fatalf("registration left meta = %v", e.Meta)
	}

	// First writer gets the lock immediately.
	trap(f, h, 3, &coherence.Msg{Type: coherence.WREQ, Addr: lockAddr, Next: -1})
	if wd := f.byType(coherence.WDATA); len(wd) != 1 || wd[0].dst != 3 {
		t.Fatalf("first grant = %+v", f.sent)
	}
	// Two more writers queue in order; an INV goes to the holder.
	trap(f, h, 7, &coherence.Msg{Type: coherence.WREQ, Addr: lockAddr, Next: -1})
	trap(f, h, 5, &coherence.Msg{Type: coherence.WREQ, Addr: lockAddr, Next: -1})
	if h.QueueLen(lockAddr) != 2 {
		t.Fatalf("queue length = %d, want 2", h.QueueLen(lockAddr))
	}
	if invs := f.byType(coherence.INV); len(invs) != 1 || invs[0].dst != 3 {
		t.Fatalf("INVs = %+v, want one to holder 3", invs)
	}
	// Holder's data returns: grant to 7 (FIFO), then reclaim for 5.
	trap(f, h, 3, &coherence.Msg{Type: coherence.UPDATE, Addr: lockAddr, Value: 1, Next: -1})
	wd := f.byType(coherence.WDATA)
	if len(wd) != 2 || wd[1].dst != 7 {
		t.Fatalf("second grant = %+v", wd)
	}
	if invs := f.byType(coherence.INV); len(invs) != 2 || invs[1].dst != 7 {
		t.Fatalf("reclaim INVs = %+v", invs)
	}
	trap(f, h, 7, &coherence.Msg{Type: coherence.UPDATE, Addr: lockAddr, Value: 2, Next: -1})
	wd = f.byType(coherence.WDATA)
	if len(wd) != 3 || wd[2].dst != 5 {
		t.Fatalf("third grant = %+v", wd)
	}
	// Grant order was strictly FIFO.
	want := []mesh.NodeID{3, 7, 5}
	for i, g := range h.Grants {
		if g != want[i] {
			t.Fatalf("grants = %v, want %v", h.Grants, want)
		}
	}
}

func TestLockHandlerReadsGetBusy(t *testing.T) {
	f := newFake(16, 2)
	h := swdir.NewLock(f)
	lockAddr := directory.Addr(0x78)
	h.Register(lockAddr)
	trap(f, h, 2, &coherence.Msg{Type: coherence.RREQ, Addr: lockAddr, Next: -1})
	if b := f.byType(coherence.BUSY); len(b) != 1 || b[0].dst != 2 {
		t.Fatalf("BUSY = %+v", f.sent)
	}
}

func TestLockHandlerReleaseByEviction(t *testing.T) {
	f := newFake(16, 2)
	h := swdir.NewLock(f)
	lockAddr := directory.Addr(0x79)
	h.Register(lockAddr)
	trap(f, h, 3, &coherence.Msg{Type: coherence.WREQ, Addr: lockAddr, Next: -1})
	// Holder evicts the lock block (REPM): lock free again.
	trap(f, h, 3, &coherence.Msg{Type: coherence.REPM, Addr: lockAddr, Value: 5, Next: -1})
	e := f.dir.Entry(lockAddr)
	if e.State != directory.ReadOnly || e.Value != 5 {
		t.Fatalf("after REPM: state=%v value=%d", e.State, e.Value)
	}
	// Next writer acquires immediately.
	trap(f, h, 6, &coherence.Msg{Type: coherence.WREQ, Addr: lockAddr, Next: -1})
	wd := f.byType(coherence.WDATA)
	if len(wd) != 2 || wd[1].dst != 6 {
		t.Fatalf("grant after eviction = %+v", wd)
	}
}

func TestUpdateHandlerMulticasts(t *testing.T) {
	f := newFake(16, 2)
	h := swdir.NewUpdate(f)
	v := directory.Addr(0x80)
	h.Register(v)

	for _, rd := range []mesh.NodeID{2, 3, 4} {
		trap(f, h, rd, &coherence.Msg{Type: coherence.RREQ, Addr: v, Next: -1})
	}
	if h.Readers(v) != 3 {
		t.Fatalf("readers = %d", h.Readers(v))
	}
	f.sent = nil
	trap(f, h, 2, &coherence.Msg{Type: coherence.UWREQ, Addr: v, Value: 42, Next: -1})

	upds := f.byType(coherence.UPDD)
	if len(upds) != 3 {
		t.Fatalf("UPDDs = %d, want 3 (all readers, including the writer)", len(upds))
	}
	for _, u := range upds {
		if u.msg.Value != 42 {
			t.Fatalf("UPDD value = %d", u.msg.Value)
		}
	}
	if acks := f.byType(coherence.UACK); len(acks) != 1 || acks[0].dst != 2 {
		t.Fatalf("UACK = %+v", f.byType(coherence.UACK))
	}
	if invs := f.byType(coherence.INV); len(invs) != 0 {
		t.Fatal("update mode sent invalidations")
	}
	if f.dir.Entry(v).Value != 42 {
		t.Fatalf("memory value = %d", f.dir.Entry(v).Value)
	}
	if h.Updates != 3 {
		t.Fatalf("Updates counter = %d", h.Updates)
	}
}

func TestUpdateHandlerRMW(t *testing.T) {
	f := newFake(16, 2)
	h := swdir.NewUpdate(f)
	v := directory.Addr(0x81)
	h.Register(v)
	f.dir.Entry(v).Value = 10
	trap(f, h, 2, &coherence.Msg{Type: coherence.UWREQ, Addr: v, Next: -1,
		Modify: func(old uint64) uint64 { return old + 5 }})
	if f.dir.Entry(v).Value != 15 {
		t.Fatalf("RMW result = %d, want 15", f.dir.Entry(v).Value)
	}
	if acks := f.byType(coherence.UACK); len(acks) != 1 || acks[0].msg.Value != 10 {
		t.Fatalf("UACK old value = %+v", acks)
	}
}

func TestSoftwareHandlerFullFSM(t *testing.T) {
	f := newFake(16, 1)
	h := swdir.NewSoftware(f)
	v := directory.Addr(0x90)
	f.dir.Entry(v).Meta = directory.TrapAlways

	// Reads accumulate in the software vector.
	trap(f, h, 2, &coherence.Msg{Type: coherence.RREQ, Addr: v, Next: -1})
	trap(f, h, 3, &coherence.Msg{Type: coherence.RREQ, Addr: v, Next: -1})
	if h.WorkerSet(v) != 2 {
		t.Fatalf("worker set = %d", h.WorkerSet(v))
	}
	// A write invalidates both and enters Write-Transaction.
	f.sent = nil
	trap(f, h, 4, &coherence.Msg{Type: coherence.WREQ, Addr: v, Next: -1})
	e := f.dir.Entry(v)
	if e.State != directory.WriteTransaction || e.AckCtr != 2 {
		t.Fatalf("state=%v ackctr=%d", e.State, e.AckCtr)
	}
	if len(f.byType(coherence.INV)) != 2 {
		t.Fatalf("INVs = %d", len(f.byType(coherence.INV)))
	}
	// Acks arrive through software too.
	trap(f, h, 2, &coherence.Msg{Type: coherence.ACKC, Addr: v, Next: -1})
	trap(f, h, 3, &coherence.Msg{Type: coherence.ACKC, Addr: v, Next: -1})
	if e.State != directory.ReadWrite {
		t.Fatalf("state = %v after both acks", e.State)
	}
	if wd := f.byType(coherence.WDATA); len(wd) != 1 || wd[0].dst != 4 {
		t.Fatalf("WDATA = %+v", f.byType(coherence.WDATA))
	}
	if e.Meta != directory.TrapAlways {
		t.Fatalf("meta = %v, want Trap-Always restored", e.Meta)
	}
	// Read from the new owner: software runs the read transaction.
	f.sent = nil
	trap(f, h, 5, &coherence.Msg{Type: coherence.RREQ, Addr: v, Next: -1})
	if e.State != directory.ReadTransaction {
		t.Fatalf("state = %v", e.State)
	}
	trap(f, h, 4, &coherence.Msg{Type: coherence.UPDATE, Addr: v, Value: 88, Next: -1})
	if e.State != directory.ReadOnly || e.Value != 88 {
		t.Fatalf("after UPDATE: state=%v value=%d", e.State, e.Value)
	}
	if rd := f.byType(coherence.RDATA); len(rd) != 1 || rd[0].dst != 5 || rd[0].msg.Value != 88 {
		t.Fatalf("RDATA = %+v", f.byType(coherence.RDATA))
	}
}

func TestSoftwareHandlerBusyDuringTransaction(t *testing.T) {
	f := newFake(16, 1)
	h := swdir.NewSoftware(f)
	v := directory.Addr(0x91)
	f.dir.Entry(v).Meta = directory.TrapAlways
	trap(f, h, 2, &coherence.Msg{Type: coherence.RREQ, Addr: v, Next: -1})
	trap(f, h, 3, &coherence.Msg{Type: coherence.WREQ, Addr: v, Next: -1}) // WT, waiting ack
	f.sent = nil
	trap(f, h, 5, &coherence.Msg{Type: coherence.RREQ, Addr: v, Next: -1})
	if b := f.byType(coherence.BUSY); len(b) != 1 || b[0].dst != 5 {
		t.Fatalf("BUSY = %+v", f.sent)
	}
}

func TestFIFOEvictHandlerEvictsOldest(t *testing.T) {
	f := newFake(16, 2)
	h := swdir.NewFIFOEvict(f)
	v := directory.Addr(0xA0)
	h.Register(v)
	e := f.dir.Entry(v)
	e.Ptrs.Add(3)
	e.Ptrs.Add(4)
	e.Value = 11

	// Overflow read from 5: evict the oldest (3), grant 5.
	trap(f, h, 5, &coherence.Msg{Type: coherence.RREQ, Addr: v, Next: -1})

	if e.Ptrs.Contains(3) {
		t.Fatal("oldest pointer not evicted")
	}
	if !e.Ptrs.Contains(4) || !e.Ptrs.Contains(5) {
		t.Fatalf("pointers = %v, want [4 5]", e.Ptrs.Nodes())
	}
	if e.Meta != directory.Normal {
		t.Fatalf("meta = %v, want Normal (line stays in hardware)", e.Meta)
	}
	invs := f.byType(coherence.INV)
	if len(invs) != 1 || invs[0].dst != 3 || !invs[0].msg.Evict {
		t.Fatalf("INVs = %+v, want eviction INV to 3", invs)
	}
	rd := f.byType(coherence.RDATA)
	if len(rd) != 1 || rd[0].dst != 5 || rd[0].msg.Value != 11 {
		t.Fatalf("RDATA = %+v", rd)
	}
	if h.Evictions != 1 {
		t.Fatalf("evictions = %d", h.Evictions)
	}

	// Next overflow evicts 4 (FIFO order continues).
	f.sent = nil
	trap(f, h, 6, &coherence.Msg{Type: coherence.RREQ, Addr: v, Next: -1})
	invs = f.byType(coherence.INV)
	if len(invs) != 1 || invs[0].dst != 4 {
		t.Fatalf("second eviction INV = %+v, want -> 4", invs)
	}
	if !e.Ptrs.Contains(5) || !e.Ptrs.Contains(6) {
		t.Fatalf("pointers = %v, want [5 6]", e.Ptrs.Nodes())
	}
}

func TestFIFOEvictUnregisteredPanics(t *testing.T) {
	f := newFake(16, 2)
	h := swdir.NewFIFOEvict(f)
	defer func() {
		if recover() == nil {
			t.Error("unregistered address accepted")
		}
	}()
	trap(f, h, 5, &coherence.Msg{Type: coherence.RREQ, Addr: 0xB0, Next: -1})
}
