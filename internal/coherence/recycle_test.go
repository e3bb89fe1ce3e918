package coherence

import (
	"testing"

	"limitless/internal/cache"
	"limitless/internal/directory"
	"limitless/internal/mesh"
	"limitless/internal/sim"
)

// TestRecycledControllersStartEmpty leaves state in every buffer a pooled
// controller keeps — MSHR slots, chained list positions, update-mode
// marks, deferred packets — recycles the controllers and builds new ones.
// Whichever controllers the pools hand back, they must hold none of it:
// list positions and update-mode marks outlive the run that made them in
// no Result a workload can observe, so this is where their reset shows.
func TestRecycledControllersStartEmpty(t *testing.T) {
	build := func() (*CacheController, *MemoryController) {
		eng := sim.New()
		nw := mesh.New(mesh.DefaultConfig(2, 1))
		port := nw.Bind(eng, 1)
		p := DefaultParams(2)
		cc := NewCacheController(eng, port, 0, p, cache.New(cache.Config{Lines: 64}))
		return cc, NewMemoryController(eng, port, 0, p, nil)
	}
	cc, mc := build()
	addr := BlockAt(1, 3)
	cc.txns = append(cc.txns, txnEntry{addr, &txn{}})
	cc.chainNext = map[directory.Addr][]chainLink{addr: {{next: 1, pos: 2}}}
	cc.SetUpdateMode(addr, true)
	mc.deferred = map[directory.Addr][]deferredPkt{addr: {{src: 1, msg: Msg{Type: ACKC, Addr: addr}}}}
	cc.Recycle()
	mc.Recycle()

	cc, mc = build()
	if len(cc.txns) != 0 || len(cc.chainNext) != 0 || len(cc.updateMode) != 0 {
		t.Errorf("recycled cache controller kept %d MSHR slots, %d list positions, %d update-mode marks",
			len(cc.txns), len(cc.chainNext), len(cc.updateMode))
	}
	if len(mc.deferred) != 0 {
		t.Errorf("recycled memory controller kept %d deferred blocks", len(mc.deferred))
	}
}
