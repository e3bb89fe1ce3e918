package coherence_test

import (
	"testing"

	"limitless/internal/cache"
	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/mesh"
	"limitless/internal/sim"
)

// addr homed at node 1 (3x3 rig: nodes 0..8).
const blk = directory.Addr(1<<coherence.HomeShift | 0x10)

// --- Table 2, transition 1: RREQ in Read-Only adds a pointer, RDATA ---

func TestT1ReadAddsPointer(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.FullMap, 0))
	if got := r.read(2, blk); got != 0 {
		t.Fatalf("initial read = %d, want 0", got)
	}
	e := r.entry(blk)
	if e.State != directory.ReadOnly {
		t.Fatalf("state = %v", e.State)
	}
	if !e.Ptrs.Contains(2) || e.Ptrs.Len() != 1 {
		t.Fatalf("pointers = %v", e.Ptrs.Nodes())
	}
	r.read(3, blk)
	if r.entry(blk).Ptrs.Len() != 2 {
		t.Fatalf("second reader not recorded: %v", r.entry(blk).Ptrs.Nodes())
	}
}

// --- Transition 2: WREQ with P = {} or P = {i} grants immediately ---

func TestT2WriteGrantEmptySet(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.FullMap, 0))
	r.write(4, blk, 99)
	e := r.entry(blk)
	if e.State != directory.ReadWrite {
		t.Fatalf("state = %v, want Read-Write", e.State)
	}
	if !e.Ptrs.Contains(4) || e.Ptrs.Len() != 1 {
		t.Fatalf("owner pointers = %v", e.Ptrs.Nodes())
	}
	// No invalidations were needed.
	if r.nodes[1].mc.Stats().InvalidationsSent != 0 {
		t.Fatal("invalidations sent for an uncached write")
	}
}

func TestT2WriteUpgradeSelfOnly(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.FullMap, 0))
	r.read(4, blk)     // P = {4}
	r.write(4, blk, 5) // upgrade in place
	if r.nodes[1].mc.Stats().InvalidationsSent != 0 {
		t.Fatal("upgrade of sole reader sent invalidations")
	}
	if r.entry(blk).State != directory.ReadWrite {
		t.Fatalf("state = %v", r.entry(blk).State)
	}
}

// --- Transition 3: WREQ with other readers invalidates them all ---

func TestT3WriteInvalidatesReaders(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.FullMap, 0))
	readers := []mesh.NodeID{2, 3, 5, 7}
	for _, id := range readers {
		r.read(id, blk)
	}
	r.write(8, blk, 42)
	e := r.entry(blk)
	if e.State != directory.ReadWrite || !e.Ptrs.Contains(8) {
		t.Fatalf("after write: state=%v ptrs=%v", e.State, e.Ptrs.Nodes())
	}
	st := r.nodes[1].mc.Stats()
	if st.InvalidationsSent != uint64(len(readers)) {
		t.Fatalf("invalidations = %d, want %d", st.InvalidationsSent, len(readers))
	}
	for _, id := range readers {
		if r.nodes[id].cc.Cache().State(blk) != cache.Invalid {
			t.Fatalf("reader %d still caches the block", id)
		}
	}
	// And the owner's copy holds the stored value.
	if v, ok := r.nodes[8].cc.Cache().Read(blk); !ok || v != 42 {
		t.Fatalf("owner copy = (%d,%v)", v, ok)
	}
}

func TestT3WriterAmongReaders(t *testing.T) {
	// WREQ from i with i ∈ P: AckCtr = n-1 (no INV to the requester).
	r := newRig(t, 3, 3, params(coherence.FullMap, 0))
	r.read(2, blk)
	r.read(3, blk)
	r.write(2, blk, 7)
	if got := r.nodes[1].mc.Stats().InvalidationsSent; got != 1 {
		t.Fatalf("invalidations = %d, want 1 (only node 3)", got)
	}
	if got := r.read(3, blk); got != 7 {
		t.Fatalf("node 3 re-read = %d, want 7", got)
	}
}

// --- Transitions 4 and 8: WREQ to a held block retrieves the dirty data ---

func TestT4T8OwnershipTransfer(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.FullMap, 0))
	r.write(2, blk, 10)
	r.write(3, blk, 20)
	e := r.entry(blk)
	if e.State != directory.ReadWrite || !e.Ptrs.Contains(3) || e.Ptrs.Len() != 1 {
		t.Fatalf("after transfer: state=%v ptrs=%v", e.State, e.Ptrs.Nodes())
	}
	if r.nodes[2].cc.Cache().State(blk) != cache.Invalid {
		t.Fatal("old owner still holds the block")
	}
	// Memory absorbed the first write's data via UPDATE.
	if e.Value != 10 {
		t.Fatalf("memory value = %d, want 10 (old owner's data)", e.Value)
	}
	if v, _ := r.nodes[3].cc.Cache().Read(blk); v != 20 {
		t.Fatalf("new owner's copy = %d, want 20", v)
	}
}

// --- Transitions 5 and 10: RREQ to a held block ---

func TestT5T10ReadFromOwner(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.FullMap, 0))
	r.write(2, blk, 33)
	if got := r.read(5, blk); got != 33 {
		t.Fatalf("read after remote write = %d, want 33", got)
	}
	e := r.entry(blk)
	if e.State != directory.ReadOnly {
		t.Fatalf("state = %v, want Read-Only", e.State)
	}
	// Figure 2: the owner is invalidated; only the reader holds a copy.
	if e.Ptrs.Len() != 1 || !e.Ptrs.Contains(5) {
		t.Fatalf("pointers = %v, want [5]", e.Ptrs.Nodes())
	}
	if r.nodes[2].cc.Cache().State(blk) != cache.Invalid {
		t.Fatal("previous owner kept its copy across a read transaction")
	}
	if e.Value != 33 {
		t.Fatalf("memory value = %d, want 33", e.Value)
	}
}

// --- Transition 6: REPM from the owner returns the block to memory ---

func TestT6ReplaceModified(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.FullMap, 0))
	r.write(2, blk, 55)
	// Conflict-evict the dirty line: same cache slot (64 lines in the rig),
	// different block.
	conflict := directory.Addr(2<<coherence.HomeShift | 0x10) // same low bits
	r.read(2, conflict)
	e := r.entry(blk)
	if e.State != directory.ReadOnly || e.Ptrs.Len() != 0 {
		t.Fatalf("after REPM: state=%v ptrs=%v", e.State, e.Ptrs.Nodes())
	}
	if e.Value != 55 {
		t.Fatalf("memory value = %d, want 55", e.Value)
	}
	if got := r.read(3, blk); got != 55 {
		t.Fatalf("read after writeback = %d", got)
	}
}

// --- Transitions 7 and 9: BUSY during transactions, requester retries ---

func TestT7T9BusyAndRetry(t *testing.T) {
	p := params(coherence.FullMap, 0)
	r := newRig(t, 3, 3, p)
	for _, id := range []mesh.NodeID{2, 3, 5} {
		r.read(id, blk)
	}
	// Two concurrent writers: one wins, the other gets BUSY during the
	// write transaction and retries until it succeeds.
	done := 0
	for _, id := range []mesh.NodeID{6, 7} {
		id := id
		r.nodes[id].cc.Access(coherence.Request{
			Op: coherence.Store, Addr: blk, Value: uint64(id), Shared: true,
			Done: func(uint64) { done++ },
		})
	}
	r.eng.Run()
	if done != 2 {
		t.Fatalf("completed %d writes, want 2", done)
	}
	retries := r.nodes[6].cc.Stats().Retries + r.nodes[7].cc.Stats().Retries
	if retries == 0 {
		t.Fatal("no BUSY retries recorded for concurrent writers")
	}
	busies := r.nodes[1].mc.Stats().Busies
	if busies == 0 {
		t.Fatal("directory issued no BUSY responses")
	}
	e := r.entry(blk)
	if e.State != directory.ReadWrite || e.Ptrs.Len() != 1 {
		t.Fatalf("final state=%v ptrs=%v", e.State, e.Ptrs.Nodes())
	}
}

// --- Limited directory: eviction on pointer overflow ---

func TestLimitedEvictsOldestPointer(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.LimitedNB, 2))
	r.read(2, blk)
	r.read(3, blk)
	r.read(4, blk) // overflow: evict 2 (FIFO)
	e := r.entry(blk)
	if e.Ptrs.Contains(2) {
		t.Fatal("oldest pointer not evicted")
	}
	if !e.Ptrs.Contains(3) || !e.Ptrs.Contains(4) {
		t.Fatalf("pointers = %v, want [3 4]", e.Ptrs.Nodes())
	}
	if r.nodes[2].cc.Cache().State(blk) != cache.Invalid {
		t.Fatal("evicted reader still caches the block")
	}
	st := r.nodes[1].mc.Stats()
	if st.Evictions != 1 || st.PointerOverflows != 1 {
		t.Fatalf("evictions=%d overflows=%d, want 1/1", st.Evictions, st.PointerOverflows)
	}
}

func TestLimitedEvictionAckDoesNotCorruptWriteTransaction(t *testing.T) {
	// The eviction INV's ACKC must be absorbed (Evict flag) even if a write
	// transaction for the same block is in flight when it arrives.
	r := newRig(t, 3, 3, params(coherence.LimitedNB, 2))
	r.read(2, blk)
	r.read(3, blk)
	// Kick off a read (evicts 2) and a write concurrently.
	reads, writes := 0, 0
	r.nodes[4].cc.Access(coherence.Request{Op: coherence.Load, Addr: blk, Shared: true,
		Done: func(uint64) { reads++ }})
	r.nodes[5].cc.Access(coherence.Request{Op: coherence.Store, Addr: blk, Value: 1, Shared: true,
		Done: func(uint64) { writes++ }})
	r.eng.Run()
	if reads != 1 || writes != 1 {
		t.Fatalf("reads=%d writes=%d, want 1/1", reads, writes)
	}
	e := r.entry(blk)
	if e.AckCtr != 0 {
		t.Fatalf("AckCtr = %d after quiesce, want 0", e.AckCtr)
	}
}

// --- Local Bit (Section 4.3) ---

func TestLocalBitAbsorbsHomeRead(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.LimitedNB, 2))
	r.read(2, blk)
	r.read(3, blk)
	// The home node itself reads: must not evict anyone — the Local Bit
	// ensures "local read requests will never overflow a directory".
	r.read(1, blk)
	e := r.entry(blk)
	if !e.Local {
		t.Fatal("Local Bit not set for the home node's read")
	}
	if e.Ptrs.Len() != 2 {
		t.Fatalf("home read disturbed the pointer array: %v", e.Ptrs.Nodes())
	}
	if r.nodes[1].mc.Stats().Evictions != 0 {
		t.Fatal("home read caused an eviction")
	}
	// A later write must still invalidate the home's copy.
	r.write(4, blk, 9)
	if r.nodes[1].cc.Cache().State(blk) != cache.Invalid {
		t.Fatal("home copy survived a remote write")
	}
	if r.entry(blk).Local {
		t.Fatal("Local Bit survived a write transaction")
	}
}

// --- Private-only baseline: uncached round trips ---

func TestPrivateOnlyUncachedSharedData(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.PrivateOnly, 0))
	r.write(2, blk, 11)
	if got := r.read(3, blk); got != 11 {
		t.Fatalf("uncached read = %d, want 11", got)
	}
	// Nothing was cached and no directory pointers were recorded.
	if r.nodes[2].cc.Cache().Occupancy() != 0 || r.nodes[3].cc.Cache().Occupancy() != 0 {
		t.Fatal("private-only scheme cached shared data")
	}
	if r.entry(blk).Ptrs.Len() != 0 {
		t.Fatal("uncached access recorded a pointer")
	}
	if r.nodes[3].cc.Misses().UncachedTrips == 0 {
		t.Fatal("no uncached trips counted")
	}
	// Private data still caches normally.
	priv := directory.Addr(3<<coherence.HomeShift | 0x20)
	done := false
	r.nodes[3].cc.Access(coherence.Request{Op: coherence.Store, Addr: priv, Value: 5, Shared: false,
		Done: func(uint64) { done = true }})
	r.eng.Run()
	if !done || r.nodes[3].cc.Cache().Occupancy() != 1 {
		t.Fatal("private data did not cache")
	}
}

// --- Chained directory ---

func TestChainedReadBuildsList(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.Chained, 1))
	r.read(2, blk)
	r.read(3, blk)
	r.read(4, blk)
	e := r.entry(blk)
	if e.Chain != 3 {
		t.Fatalf("chain length = %d, want 3", e.Chain)
	}
	// Directory holds only the head.
	if !e.Ptrs.Contains(4) || e.Ptrs.Len() != 1 {
		t.Fatalf("head = %v, want [4]", e.Ptrs.Nodes())
	}
}

func TestChainedWriteWalksList(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.Chained, 1))
	readers := []mesh.NodeID{2, 3, 4, 5}
	for _, id := range readers {
		r.read(id, blk)
	}
	r.write(7, blk, 70)
	for _, id := range readers {
		if r.nodes[id].cc.Cache().State(blk) != cache.Invalid {
			t.Fatalf("reader %d survived the chained invalidation", id)
		}
	}
	e := r.entry(blk)
	if e.State != directory.ReadWrite || !e.Ptrs.Contains(7) {
		t.Fatalf("state=%v ptrs=%v", e.State, e.Ptrs.Nodes())
	}
	// The walk is sequential: exactly one CINV per list member.
	var cinvs uint64
	for _, n := range r.nodes {
		cinvs += n.mc.Stats().Sent[coherence.CINV] + n.cc.Stats().Sent[coherence.CINV]
	}
	if cinvs != uint64(len(readers)) {
		t.Fatalf("CINV count = %d, want %d", cinvs, len(readers))
	}
}

func TestChainedSequentialLatencyGrowsWithSharers(t *testing.T) {
	// The Section 1 comparison: chained directories "incur high write
	// latencies" because invalidations are sequential, while the
	// centralized schemes fan INVs out in parallel.
	lat := func(scheme coherence.Scheme, readers int) sim.Time {
		p := params(scheme, 1)
		if scheme == coherence.FullMap {
			p.Pointers = 0
		}
		r := newRig(t, 3, 3, p)
		for i := 0; i < readers; i++ {
			r.read(mesh.NodeID(2+i), blk)
		}
		start := r.eng.Now()
		r.write(0, blk, 1)
		return r.eng.Now() - start
	}
	chained2, chained6 := lat(coherence.Chained, 2), lat(coherence.Chained, 6)
	full2, full6 := lat(coherence.FullMap, 2), lat(coherence.FullMap, 6)
	chainGrowth := chained6 - chained2
	fullGrowth := full6 - full2
	if chainGrowth <= fullGrowth {
		t.Fatalf("chained write latency growth %d not above full-map growth %d", chainGrowth, fullGrowth)
	}
}
