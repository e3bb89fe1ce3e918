package machine

import (
	"testing"

	"limitless/internal/coherence"
	"limitless/internal/mesh"
	"limitless/internal/workload"
)

// Regression: deferred acknowledgments must not starve behind BUSY-retried
// requests when every packet traps to software (livelock found during
// bring-up; fixed by priority re-processing in MemoryController.Release).
func TestSoftwareOnlyAckStarvationRegression(t *testing.T) {
	params := coherence.DefaultParams(16)
	params.Scheme = coherence.SoftwareOnly
	params.Pointers = 1
	m := New(Config{Width: 4, Height: 4, Contexts: 1, Params: params})
	hot := coherence.BlockAt(0, 1)
	ready := coherence.BlockAt(0, 2)
	m.SetWorkload(0, 0, workload.NewThread(func(th *workload.Thread) {
		th.Store(hot, 5, func(_ uint64, th *workload.Thread) {
			th.Store(ready, 1, func(_ uint64, th *workload.Thread) {
				th.Compute(3000, func(_ uint64, th *workload.Thread) {
					th.Store(hot, 9, func(_ uint64, th *workload.Thread) {})
				})
			})
		})
	}))
	for id := mesh.NodeID(1); id < 16; id++ {
		id := id
		m.SetWorkload(id, 0, workload.NewThread(func(th *workload.Thread) {
			th.SpinUntil(ready, func(v uint64) bool { return v == 1 }, 8,
				func(_ uint64, th *workload.Thread) {
					th.Load(hot, func(v uint64, th *workload.Thread) {
						th.SpinUntil(hot, func(v uint64) bool { return v == 9 }, 16,
							func(_ uint64, th *workload.Thread) {})
					})
				})
		}))
	}
	res, done := m.RunUntil(200000)
	if !done {
		for _, n := range m.Nodes {
			t.Logf("node %d: outstanding=%d procDone=%v ipiq=%d", n.ID, n.CC.Outstanding(), n.Proc.Done(), n.MC.IPIQueue().Len())
		}
		for _, a := range []struct {
			name string
			addr uint64
		}{{"hot", 1}, {"ready", 2}} {
			e := m.Nodes[0].MC.Dir().Entry(coherence.BlockAt(0, a.addr))
			t.Logf("%s: state=%v meta=%v ptrs=%v ackctr=%d value=%d pending=%d",
				a.name, e.State, e.Meta, e.Ptrs.Nodes(), e.AckCtr, e.Value, e.Pending)
		}
		t.Logf("traps=%d busies=%d deferred=%d invs=%d swHandled=%d",
			res.Coherence.Traps, res.Coherence.Busies, res.Coherence.Deferred,
			res.Coherence.InvalidationsSent, res.Coherence.SWHandled)
		t.Logf("ACKC sent=%d recv=%d; INV sent=%d recv=%d; RREQ sent=%d recv=%d",
			res.Coherence.Sent[coherence.ACKC], res.Coherence.Received[coherence.ACKC],
			res.Coherence.Sent[coherence.INV], res.Coherence.Received[coherence.INV],
			res.Coherence.Sent[coherence.RREQ], res.Coherence.Received[coherence.RREQ])
		t.Logf("proc0 traps=%d trapCycles=%d",
			m.Nodes[0].Proc.Stats().TrapsServiced, m.Nodes[0].Proc.Stats().TrapCycles)
		t.Fatalf("not done at %d cycles, %d events", res.Cycles, res.Events)
	}
	t.Logf("done at %d cycles", res.Cycles)
}
