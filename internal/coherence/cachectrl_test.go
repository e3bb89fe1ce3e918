package coherence_test

import (
	"testing"

	"limitless/internal/cache"
	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/mesh"
)

// --- MSHR behaviour: one transaction per block, later requests queue ---

func TestRequestsQueueBehindOutstandingMiss(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.FullMap, 0))
	var order []string
	// Three references to the same uncached block, issued back to back:
	// one RREQ must go out; the others ride the same transaction.
	r.nodes[4].cc.Access(coherence.Request{Op: coherence.Load, Addr: blk, Shared: true,
		Done: func(v uint64) { order = append(order, "load1") }})
	r.nodes[4].cc.Access(coherence.Request{Op: coherence.Load, Addr: blk, Shared: true,
		Done: func(v uint64) { order = append(order, "load2") }})
	r.nodes[4].cc.Access(coherence.Request{Op: coherence.Store, Addr: blk, Value: 9, Shared: true,
		Done: func(v uint64) { order = append(order, "store") }})
	r.eng.Run()
	if len(order) != 3 {
		t.Fatalf("completed %d requests, want 3 (%v)", len(order), order)
	}
	for i, want := range []string{"load1", "load2", "store"} {
		if order[i] != want {
			t.Fatalf("completion order = %v", order)
		}
	}
	// One read request, then one upgrade for the queued store.
	st := r.nodes[4].cc.Stats()
	if st.Sent[coherence.RREQ] != 1 {
		t.Fatalf("RREQs = %d, want 1 (queued loads must not re-request)", st.Sent[coherence.RREQ])
	}
	if st.Sent[coherence.WREQ] != 1 {
		t.Fatalf("WREQs = %d, want 1", st.Sent[coherence.WREQ])
	}
	if r.nodes[4].cc.Outstanding() != 0 {
		t.Fatal("transactions left outstanding")
	}
}

func TestOutcomeClassification(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.FullMap, 0))
	local := directory.Addr(4<<coherence.HomeShift | 0x11) // homed at node 4
	// Cold remote miss.
	if got := r.nodes[4].cc.Access(coherence.Request{Op: coherence.Load, Addr: blk, Shared: true}); got != coherence.OutcomeMissRemote {
		t.Fatalf("remote cold miss classified %v", got)
	}
	r.eng.Run()
	// Hit.
	if got := r.nodes[4].cc.Access(coherence.Request{Op: coherence.Load, Addr: blk, Shared: true}); got != coherence.OutcomeHit {
		t.Fatalf("warm read classified %v", got)
	}
	r.eng.Run()
	// Local miss.
	if got := r.nodes[4].cc.Access(coherence.Request{Op: coherence.Load, Addr: local, Shared: true}); got != coherence.OutcomeMissLocal {
		t.Fatalf("local miss classified %v", got)
	}
	r.eng.Run()
}

// --- Dirty victim writeback on conflict ---

func TestDirtyVictimGeneratesREPM(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.FullMap, 0))
	// Rig caches have 64 lines; blk (index 0x10) conflicts with any block
	// whose low bits are 0x10 mod 64 — use a different home.
	conflict := directory.Addr(2<<coherence.HomeShift | 0x10)
	r.write(4, blk, 5) // dirty Read-Write line in node 4
	r.read(4, conflict)
	// The dirty line was displaced: its home received a writeback.
	e := r.entry(blk)
	if e.State != directory.ReadOnly || e.Value != 5 {
		t.Fatalf("after displacement: state=%v value=%d", e.State, e.Value)
	}
	if got := r.nodes[1].mc.Stats().Received[coherence.REPM]; got != 1 {
		t.Fatalf("REPMs received = %d, want 1", got)
	}
	// A later read from another node sees the written-back data.
	if got := r.read(5, blk); got != 5 {
		t.Fatalf("read after writeback = %d", got)
	}
}

func TestCleanVictimSilentlyDropped(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.FullMap, 0))
	conflict := directory.Addr(2<<coherence.HomeShift | 0x10)
	r.read(4, blk) // clean read-only copy
	r.read(4, conflict)
	if got := r.nodes[1].mc.Stats().Received[coherence.REPM]; got != 0 {
		t.Fatalf("clean replacement sent %d REPMs, want 0 (only Replace Modified)", got)
	}
	// The directory pointer is now stale — permitted by the protocol; a
	// re-read just refreshes the copy.
	if !r.entry(blk).Ptrs.Contains(4) {
		t.Fatal("stale pointer unexpectedly cleared")
	}
	if got := r.read(4, blk); got != 0 {
		t.Fatalf("re-read = %d", got)
	}
}

// --- Uncached (private-only) transactions retry after BUSY ---

func TestUncachedRetryAfterBusy(t *testing.T) {
	p := params(coherence.PrivateOnly, 0)
	r := newRig(t, 3, 3, p)
	// Force the entry into Trans-In-Progress so the first uncached access
	// bounces, then release it.
	e := r.entry(blk)
	e.Meta = directory.TransInProgress
	done := false
	r.nodes[4].cc.Access(coherence.Request{Op: coherence.Load, Addr: blk, Shared: true,
		Done: func(uint64) { done = true }})
	r.eng.RunUntil(r.eng.Now() + 200)
	if done {
		t.Fatal("uncached access completed through the interlock")
	}
	e.Meta = directory.Normal
	r.eng.Run()
	if !done {
		t.Fatal("uncached access never retried after release")
	}
	if r.nodes[4].cc.Stats().Retries == 0 {
		t.Fatal("no retry recorded")
	}
}

// --- Local Bit invalidation answers like any other sharer ---

func TestHomeNodeCopyAnswersInvalidation(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.LimitedNB, 1))
	r.read(2, blk) // pointer slot taken
	r.read(1, blk) // home node's own read: Local Bit
	if !r.entry(blk).Local {
		t.Fatal("Local Bit not set")
	}
	r.write(4, blk, 8)
	// Both the remote reader and the home's cache must have been
	// invalidated, and the write must have completed.
	if got := r.read(1, blk); got != 8 {
		t.Fatalf("home re-read = %d, want 8", got)
	}
}

// --- Chained resupply after displacement ---

func TestChainedHeadResupplyAfterDisplacement(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.Chained, 1))
	conflict := directory.Addr(2<<coherence.HomeShift | 0x10)
	r.read(2, blk)
	r.read(3, blk) // head = 3, list 3 -> 2
	// Displace the head's line, then have the head re-read: the directory
	// must resupply without growing the list.
	r.read(3, conflict)
	r.read(3, blk)
	if got := r.entry(blk).Chain; got != 2 {
		t.Fatalf("chain length = %d, want 2 (resupply must not grow the list)", got)
	}
	// A write must still reach both members.
	r.write(5, blk, 6)
	if got := r.read(2, blk); got != 6 {
		t.Fatalf("member read = %d after chained write", got)
	}
}

// --- Chained walk overtaking an RDATA ---

// TestChainedWalkWaitsForInFlightRDATA delivers a chained CINV to a reader
// before the RDATA that records the reader's list position. The walk must
// wait for the fill and then continue along the RDATA's next pointer: every
// reader behind it must be invalidated too, and the writer must complete.
// In the second case the late reader already holds an older position (its
// line was displaced and it read again), which the walk must not take for
// the new one.
func TestChainedWalkWaitsForInFlightRDATA(t *testing.T) {
	conflict := directory.Addr(2<<coherence.HomeShift | 0x10) // same cache set as blk
	for _, tc := range []struct {
		name   string
		before func(r *rig) // list set-up ahead of the late read
		after  []mesh.NodeID
	}{
		{"no older position", func(r *rig) { r.read(2, blk) }, []mesh.NodeID{4}},
		{"older position held", func(r *rig) {
			r.read(3, blk)      // position 1 for the late reader
			r.read(3, conflict) // displace its line; the position stays
			r.read(2, blk)      // position 2
		}, []mesh.NodeID{4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 3, 3, params(coherence.Chained, 1)) // blk's home is node 1
			const late = 3                                     // the reader whose RDATA is held back
			tc.before(r)

			// Hold node 3's RDATA in the network's hands until the walk
			// arrives. The network recycles the payload once the handler
			// returns, so the held RDATA is a copy.
			var heldSrc mesh.NodeID
			var held *coherence.Msg
			cinvs := 0
			n3 := r.nodes[late]
			r.nw.Register(late, func(pkt *mesh.Packet) {
				m := pkt.Payload.(*coherence.Msg)
				switch {
				case m.Type == coherence.RDATA && m.Addr == blk && held == nil && heldSrc == 0:
					c := *m
					heldSrc, held = pkt.Src, &c
				case m.Type.ToMemory():
					n3.mc.Handle(pkt.Src, m)
				default:
					if m.Type == coherence.CINV && held != nil {
						cinvs++
					}
					n3.cc.HandleMem(pkt.Src, m)
				}
			})
			readDone := false
			n3.cc.Access(coherence.Request{Op: coherence.Load, Addr: blk, Shared: true,
				Done: func(uint64) { readDone = true }})
			r.eng.Run()
			if held == nil || readDone {
				t.Fatal("node 3's RDATA was not held back")
			}
			for _, id := range tc.after {
				r.read(id, blk) // a later reader points at node 3's in-flight position
			}

			writeDone := false
			r.nodes[5].cc.Access(coherence.Request{Op: coherence.Store, Addr: blk, Value: 9, Shared: true,
				Done: func(uint64) { writeDone = true }})
			r.eng.Run()
			if cinvs != 1 {
				t.Fatalf("walk reached node 3 %d times before its RDATA, want once", cinvs)
			}
			if writeDone {
				t.Fatal("write completed while node 3's list position was still in flight")
			}

			n3.cc.HandleMem(heldSrc, held)
			r.eng.Run()
			if !readDone || !writeDone {
				t.Fatalf("read done=%v, write done=%v after the RDATA arrived", readDone, writeDone)
			}
			for _, id := range []mesh.NodeID{2, 3, 4} {
				if st := r.nodes[id].cc.Cache().State(blk); st != cache.Invalid {
					t.Errorf("reader %d holds %v after the chained write", id, st)
				}
			}
			if got := r.read(2, blk); got != 9 {
				t.Errorf("reader 2 re-read %d, want 9", got)
			}
		})
	}
}

// --- Closed-form spin polls ---

func TestPollHitsOnResidentLine(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.FullMap, 0))
	r.write(8, blk, 7)
	r.read(4, blk) // node 4 holds a Read-Only copy of 7
	cc := r.nodes[4].cc
	before := cc.Misses()
	v, ok := cc.PollHits(blk, 5)
	if !ok || v != 7 {
		t.Fatalf("PollHits = (%d,%v), want (7,true)", v, ok)
	}
	want := before
	want.Hits += 5
	if got := cc.Misses(); got != want {
		t.Fatalf("miss stats after 5 polled hits = %+v, want %+v", got, want)
	}
	if st := cc.Cache().State(blk); st != cache.ReadOnly {
		t.Fatalf("line state after PollHits = %v, want Read-Only", st)
	}
	if v, _ := cc.Cache().Read(blk); v != 7 {
		t.Fatalf("line value after PollHits = %d, want 7", v)
	}
}

func TestPollHitsWithoutLineCountsNothing(t *testing.T) {
	r := newRig(t, 3, 3, params(coherence.FullMap, 0))
	cc := r.nodes[4].cc
	poll := func(what string) {
		t.Helper()
		before := cc.Misses()
		if v, ok := cc.PollHits(blk, 5); ok || v != 0 {
			t.Fatalf("PollHits on %s line = (%d,%v), want (0,false)", what, v, ok)
		}
		if got := cc.Misses(); got != before {
			t.Fatalf("PollHits on %s line changed miss stats: %+v, want %+v", what, got, before)
		}
	}
	poll("an absent")
	r.read(4, blk)
	r.write(8, blk, 3) // invalidates node 4's copy
	if st := cc.Cache().State(blk); st != cache.Invalid {
		t.Fatalf("node 4's copy after a remote write is %v, want Invalid", st)
	}
	poll("an invalidated")
}
