package coherence_test

import (
	"testing"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/mesh"
	"limitless/internal/sim"
	"limitless/internal/swdir"
)

// naked drives one MemoryController with hand-crafted message sequences,
// recording everything it sends — the way to test the Table 2 race rows
// (REPM crossing an invalidation, deferred packets, meta-state filtering)
// without having to coax real caches into a particular interleaving.
type naked struct {
	t    *testing.T
	eng  *sim.Engine
	mc   *coherence.MemoryController
	sent []sentMsg
	hnd  swdir.PacketHandler
}

type sentMsg struct {
	dst mesh.NodeID
	msg coherence.Msg
}

// nakedSink services traps immediately.
type nakedSink struct{ n *naked }

func (s *nakedSink) ProtocolTrap() {
	s.n.eng.At(s.n.eng.Now()+1, func() {
		pkt := s.n.mc.IPIQueue().Pop()
		if pkt == nil {
			panic("naked: empty IPI queue on trap")
		}
		s.n.hnd.Handle(pkt)
	})
}

// newNaked builds a 3x1 network where node 1 hosts the controller under
// test and nodes 0 and 2 are recorders.
func newNaked(t *testing.T, params coherence.Params) *naked {
	t.Helper()
	eng := sim.New()
	params.Nodes = 3
	nw := mesh.New(mesh.DefaultConfig(3, 1))
	port := nw.Bind(eng, 1)
	n := &naked{t: t, eng: eng}
	n.mc = coherence.NewMemoryController(eng, port, 1, params, &nakedSink{n})
	n.hnd = swdir.New(n.mc)
	// The recorders keep copies: the network recycles each payload once
	// its handler returns.
	record := func(id mesh.NodeID) mesh.Handler {
		return func(pkt *mesh.Packet) {
			n.sent = append(n.sent, sentMsg{id, *pkt.Payload.(*coherence.Msg)})
		}
	}
	nw.Register(0, record(0))
	nw.Register(2, record(2))
	nw.Register(1, func(pkt *mesh.Packet) {
		n.mc.Handle(pkt.Src, pkt.Payload.(*coherence.Msg))
	})
	return n
}

// inject hands the controller a message as if delivered from src, then
// runs the engine to quiescence.
func (n *naked) inject(src mesh.NodeID, m *coherence.Msg) {
	n.mc.Handle(src, m)
	n.eng.Run()
}

func (n *naked) lastTo(dst mesh.NodeID) *coherence.Msg {
	for i := len(n.sent) - 1; i >= 0; i-- {
		if n.sent[i].dst == dst {
			return &n.sent[i].msg
		}
	}
	return nil
}

const nblk = directory.Addr(1<<coherence.HomeShift | 0x30)

// --- Table 2 row 9/10: REPM crosses the invalidation of a read transaction ---

func TestRaceREPMCrossesReadTransaction(t *testing.T) {
	n := newNaked(t, params(coherence.FullMap, 0))
	// Node 0 becomes owner with value 5 written back later.
	n.inject(0, &coherence.Msg{Type: coherence.WREQ, Addr: nblk, Next: -1})
	if got := n.lastTo(0); got == nil || got.Type != coherence.WDATA {
		t.Fatalf("grant = %+v", got)
	}
	// Node 2 asks to read: controller enters Read-Transaction, INV -> 0.
	n.inject(2, &coherence.Msg{Type: coherence.RREQ, Addr: nblk, Next: -1})
	if got := n.lastTo(0); got.Type != coherence.INV {
		t.Fatalf("owner saw %v, want INV", got.Type)
	}
	e := n.mc.Dir().Entry(nblk)
	if e.State != directory.ReadTransaction {
		t.Fatalf("state = %v", e.State)
	}
	// The owner's eviction (REPM, value 5) crossed the INV: absorbed.
	n.inject(0, &coherence.Msg{Type: coherence.REPM, Addr: nblk, Value: 5, Next: -1})
	if e.State != directory.ReadTransaction {
		t.Fatalf("REPM ended the transaction early: %v", e.State)
	}
	if e.Value != 5 {
		t.Fatalf("REPM data lost: value = %d", e.Value)
	}
	// The owner acknowledges the INV for its now-absent block.
	n.inject(0, &coherence.Msg{Type: coherence.ACKC, Addr: nblk, Next: -1})
	if e.State != directory.ReadOnly {
		t.Fatalf("state after ack = %v", e.State)
	}
	got := n.lastTo(2)
	if got.Type != coherence.RDATA || got.Value != 5 {
		t.Fatalf("reader got %v value=%d, want RDATA 5", got.Type, got.Value)
	}
	if !e.Ptrs.Contains(2) || e.Ptrs.Len() != 1 {
		t.Fatalf("pointers = %v", e.Ptrs.Nodes())
	}
}

// --- Table 2 row 7: REPM crosses the invalidation of a write transaction ---

func TestRaceREPMCrossesWriteTransaction(t *testing.T) {
	n := newNaked(t, params(coherence.FullMap, 0))
	n.inject(0, &coherence.Msg{Type: coherence.WREQ, Addr: nblk, Next: -1})
	n.inject(2, &coherence.Msg{Type: coherence.WREQ, Addr: nblk, Next: -1})
	e := n.mc.Dir().Entry(nblk)
	if e.State != directory.WriteTransaction || e.AckCtr != 1 {
		t.Fatalf("state=%v ackctr=%d", e.State, e.AckCtr)
	}
	n.inject(0, &coherence.Msg{Type: coherence.REPM, Addr: nblk, Value: 7, Next: -1})
	if e.AckCtr != 1 {
		t.Fatal("REPM consumed the acknowledgment")
	}
	n.inject(0, &coherence.Msg{Type: coherence.ACKC, Addr: nblk, Next: -1})
	if e.State != directory.ReadWrite {
		t.Fatalf("state = %v", e.State)
	}
	got := n.lastTo(2)
	if got.Type != coherence.WDATA || got.Value != 7 {
		t.Fatalf("writer got %v value=%d, want WDATA 7", got.Type, got.Value)
	}
}

// --- UPDATE completes a write transaction directly (row 8) ---

func TestRaceUpdateCompletesWriteTransaction(t *testing.T) {
	n := newNaked(t, params(coherence.FullMap, 0))
	n.inject(0, &coherence.Msg{Type: coherence.WREQ, Addr: nblk, Next: -1})
	n.inject(2, &coherence.Msg{Type: coherence.WREQ, Addr: nblk, Next: -1})
	n.inject(0, &coherence.Msg{Type: coherence.UPDATE, Addr: nblk, Value: 9, Next: -1})
	e := n.mc.Dir().Entry(nblk)
	if e.State != directory.ReadWrite {
		t.Fatalf("state = %v", e.State)
	}
	if got := n.lastTo(2); got.Type != coherence.WDATA || got.Value != 9 {
		t.Fatalf("writer got %v value=%d", got.Type, got.Value)
	}
}

// --- BUSY during both transaction states (rows 7 and 9) ---

func TestRaceBusyDuringTransactions(t *testing.T) {
	n := newNaked(t, params(coherence.FullMap, 0))
	n.inject(0, &coherence.Msg{Type: coherence.WREQ, Addr: nblk, Next: -1})
	n.inject(2, &coherence.Msg{Type: coherence.RREQ, Addr: nblk, Next: -1}) // -> RT
	n.inject(2, &coherence.Msg{Type: coherence.RREQ, Addr: nblk, Next: -1})
	if got := n.lastTo(2); got.Type != coherence.BUSY {
		t.Fatalf("RREQ in RT got %v, want BUSY", got.Type)
	}
	n.inject(2, &coherence.Msg{Type: coherence.WREQ, Addr: nblk, Next: -1})
	if got := n.lastTo(2); got.Type != coherence.BUSY {
		t.Fatalf("WREQ in RT got %v, want BUSY", got.Type)
	}
}

// --- Eviction-flagged acknowledgments are absorbed in any state ---

func TestRaceEvictAckAbsorbedDuringWriteTransaction(t *testing.T) {
	n := newNaked(t, params(coherence.LimitedNB, 2))
	n.inject(0, &coherence.Msg{Type: coherence.WREQ, Addr: nblk, Next: -1})
	n.inject(2, &coherence.Msg{Type: coherence.WREQ, Addr: nblk, Next: -1})
	e := n.mc.Dir().Entry(nblk)
	if e.AckCtr != 1 {
		t.Fatalf("ackctr = %d", e.AckCtr)
	}
	// A stale eviction acknowledgment arrives mid-transaction.
	n.inject(0, &coherence.Msg{Type: coherence.ACKC, Addr: nblk, Next: -1, Evict: true})
	if e.AckCtr != 1 {
		t.Fatal("eviction ack decremented the transaction counter")
	}
	if e.State != directory.WriteTransaction {
		t.Fatalf("state = %v", e.State)
	}
}

// --- Trans-In-Progress interlock: requests bounce, others defer ---

func TestRaceInterlockDefersNonRetriable(t *testing.T) {
	n := newNaked(t, params(coherence.LimitLESS, 2))
	e := n.mc.Dir().Entry(nblk)
	e.State = directory.WriteTransaction
	e.AckCtr = 1
	e.Ptrs.Add(2)
	e.Meta = directory.TransInProgress
	e.Pending = 1

	// A request bounces with BUSY.
	n.inject(0, &coherence.Msg{Type: coherence.RREQ, Addr: nblk, Next: -1})
	if got := n.lastTo(0); got.Type != coherence.BUSY {
		t.Fatalf("request under interlock got %v", got.Type)
	}
	// An acknowledgment is deferred, not lost and not processed yet.
	n.inject(0, &coherence.Msg{Type: coherence.ACKC, Addr: nblk, Next: -1})
	if e.AckCtr != 1 {
		t.Fatal("deferred ACKC processed under interlock")
	}
	if n.mc.Stats().Deferred != 1 {
		t.Fatalf("deferred = %d", n.mc.Stats().Deferred)
	}
	// Release re-processes the deferred ack immediately.
	e.Meta = directory.Normal
	n.mc.Release(nblk)
	n.eng.Run()
	if e.AckCtr != 0 || e.State != directory.ReadWrite {
		t.Fatalf("after release: state=%v ackctr=%d", e.State, e.AckCtr)
	}
	if got := n.lastTo(2); got.Type != coherence.WDATA {
		t.Fatalf("writer got %v after release", got.Type)
	}
}

// --- Trap-On-Write forwards exactly WREQ/UPDATE/REPM/UWREQ ---

func TestMetaTrapOnWriteFiltersCorrectly(t *testing.T) {
	n := newNaked(t, params(coherence.LimitLESS, 2))
	e := n.mc.Dir().Entry(nblk)
	e.Meta = directory.TrapOnWrite
	// A read stays in hardware.
	n.inject(0, &coherence.Msg{Type: coherence.RREQ, Addr: nblk, Next: -1})
	if n.mc.Stats().Traps != 0 {
		t.Fatal("RREQ trapped under Trap-On-Write")
	}
	if got := n.lastTo(0); got.Type != coherence.RDATA {
		t.Fatalf("read got %v", got.Type)
	}
	// A write traps (and the baseline handler terminates it in software).
	n.inject(2, &coherence.Msg{Type: coherence.WREQ, Addr: nblk, Next: -1})
	if n.mc.Stats().Traps != 1 {
		t.Fatalf("traps = %d", n.mc.Stats().Traps)
	}
	if e.Meta != directory.Normal {
		t.Fatalf("meta after software write termination = %v", e.Meta)
	}
}

// --- Stats accumulation ---

func TestStatsAdd(t *testing.T) {
	var a, b coherence.Stats
	a.Sent[coherence.RREQ] = 2
	a.Traps = 1
	b.Sent[coherence.RREQ] = 3
	b.Received[coherence.INV] = 4
	b.Deferred = 5
	a.Add(&b)
	if a.Sent[coherence.RREQ] != 5 || a.Received[coherence.INV] != 4 || a.Deferred != 5 || a.Traps != 1 {
		t.Fatalf("Add result = %+v", a)
	}
	if a.TotalSent() != 5 {
		t.Fatalf("TotalSent = %d", a.TotalSent())
	}
}

// --- Params validation ---

func TestParamsValidation(t *testing.T) {
	bad := []coherence.Params{
		{Scheme: coherence.LimitLESS, Pointers: 0, Nodes: 4},
		{Scheme: coherence.FullMap, Nodes: 0},
	}
	for i, p := range bad {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("params %d accepted: %+v", i, p)
				}
			}()
			eng := sim.New()
			port := mesh.New(mesh.DefaultConfig(2, 2)).Bind(eng, 1)
			coherence.NewMemoryController(eng, port, 0, p, nil)
		}()
	}
}

func TestDefaultTimingMatchesPaper(t *testing.T) {
	if coherence.ContextSwitch != 11 {
		t.Errorf("context switch = %d, want 11 (SPARCLE)", coherence.ContextSwitch)
	}
	if coherence.TrapEntry < 5 || coherence.TrapEntry > 10 {
		t.Errorf("trap entry = %d, want 5-10 (Section 4.1)", coherence.TrapEntry)
	}
	if coherence.RetryBackoff != 16 {
		t.Errorf("BUSY backoff = %d, want the fixed 16 cycles", coherence.RetryBackoff)
	}
	tm := coherence.DefaultParams(64).Timing
	if tm.TrapService < 50 || tm.TrapService > 100 {
		t.Errorf("T_s = %d, want within the Alewife estimate 50-100", tm.TrapService)
	}
	if tm.RetryBackoffMax != 0 {
		t.Errorf("RetryBackoffMax = %d, want 0 (the paper's fixed backoff)", tm.RetryBackoffMax)
	}
}
