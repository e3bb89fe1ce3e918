package coherence_test

import (
	"testing"

	"limitless/internal/cache"
	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/mesh"
	"limitless/internal/sim"
	"limitless/internal/swdir"
)

// rig is a minimal multiprocessor: controllers wired to a mesh, with an
// immediate-dispatch trap pump standing in for the processor. It drives
// the coherence package directly, without the proc/machine layers.
type rig struct {
	t     *testing.T
	eng   *sim.Engine
	nw    *mesh.Network
	nodes []*rigNode
}

type rigNode struct {
	id  mesh.NodeID
	cc  *coherence.CacheController
	mc  *coherence.MemoryController
	hnd swdir.PacketHandler
	// trap pump state
	eng     *sim.Engine
	latency sim.Time
}

// ProtocolTrap implements coherence.TrapSink: service the queued packet
// after the configured trap latency.
func (n *rigNode) ProtocolTrap() {
	n.eng.At(n.eng.Now()+n.latency, func() {
		pkt := n.mc.IPIQueue().Pop()
		if pkt == nil {
			panic("rig: trap with empty IPI queue")
		}
		n.hnd.Handle(pkt)
	})
}

// newRig builds a w*h machine of bare controllers.
func newRig(t *testing.T, w, h int, params coherence.Params) *rig {
	t.Helper()
	eng := sim.New()
	params.Nodes = w * h
	nw := mesh.New(mesh.DefaultConfig(w, h))
	port := nw.Bind(eng, 1)
	r := &rig{t: t, eng: eng, nw: nw}
	for id := mesh.NodeID(0); int(id) < w*h; id++ {
		n := &rigNode{id: id, eng: eng, latency: coherence.TrapEntry + params.Timing.TrapService}
		c := cache.New(cache.Config{Lines: 64})
		n.cc = coherence.NewCacheController(eng, port, id, params, c)
		n.mc = coherence.NewMemoryController(eng, port, id, params, n)
		if params.Scheme.Info().TrapDefault {
			n.hnd = swdir.NewSoftware(n.mc)
		} else {
			n.hnd = swdir.New(n.mc)
		}
		r.nodes = append(r.nodes, n)
		func(n *rigNode) {
			nw.Register(n.id, func(pkt *mesh.Packet) {
				m := pkt.Payload.(*coherence.Msg)
				if m.Type.ToMemory() {
					n.mc.Handle(pkt.Src, m)
				} else {
					n.cc.HandleMem(pkt.Src, m)
				}
			})
		}(n)
	}
	return r
}

// read issues a load from node id and returns the value once it commits.
func (r *rig) read(id mesh.NodeID, addr directory.Addr) uint64 {
	r.t.Helper()
	var got uint64
	done := false
	r.nodes[id].cc.Access(coherence.Request{
		Op: coherence.Load, Addr: addr, Shared: true,
		Done: func(v uint64) { got = v; done = true },
	})
	r.eng.Run()
	if !done {
		r.t.Fatalf("load of %#x by %d never completed", addr, id)
	}
	return got
}

// write issues a store from node id and runs it to completion.
func (r *rig) write(id mesh.NodeID, addr directory.Addr, v uint64) {
	r.t.Helper()
	done := false
	r.nodes[id].cc.Access(coherence.Request{
		Op: coherence.Store, Addr: addr, Value: v, Shared: true,
		Done: func(uint64) { done = true },
	})
	r.eng.Run()
	if !done {
		r.t.Fatalf("store to %#x by %d never completed", addr, id)
	}
}

// entry returns the directory entry at the block's home.
func (r *rig) entry(addr directory.Addr) *directory.Entry {
	return r.nodes[coherence.HomeOf(addr)].mc.Dir().Entry(addr)
}

func params(s coherence.Scheme, ptrs int) coherence.Params {
	p := coherence.DefaultParams(9)
	p.Scheme = s
	p.Pointers = ptrs
	return p
}
