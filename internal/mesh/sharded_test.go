package mesh

import (
	"fmt"
	"strings"
	"testing"

	"limitless/internal/sim"
)

// portNet builds a network on cfg bound to a fresh engine, with the
// lookahead of a two-flit message.
func portNet(cfg Config) (*sim.Engine, *ShardPort, *Network) {
	eng := sim.New()
	nw := New(cfg)
	return eng, nw.Bind(eng, cfg.MinPacketLatency(2)), nw
}

// TestFlushWindowCanonicalMerge: same-cycle sends logged in either order
// must claim the shared ejection channel in source order, so the canonical
// order — not the log order — decides contention.
func TestFlushWindowCanonicalMerge(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	run := func(reversed bool) []sim.Time {
		eng, p, nw := portNet(cfg)
		var got []sim.Time
		for id := 0; id < 4; id++ {
			nw.Register(NodeID(id), func(pkt *Packet) {
				got = append(got, eng.Now(), sim.Time(pkt.Src))
			})
		}
		// Nodes 1 and 2 both send to node 3 at cycle 0. The order they log
		// in must not matter.
		if reversed {
			p.SendFrom(2, 3, 2, nil)
			p.SendFrom(1, 3, 2, nil)
		} else {
			p.SendFrom(1, 3, 2, nil)
			p.SendFrom(2, 3, 2, nil)
		}
		eng.Run()
		return got
	}
	first := run(false)
	second := run(true)
	if len(first) != 4 || len(first) != len(second) {
		t.Fatalf("deliveries: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("claim order depends on log order: %v vs %v", first, second)
		}
	}
	// Source order must win the ejection channel: node 1 before node 2.
	if first[1] != 1 {
		t.Fatalf("first delivery from node %d, want the lower source first (%v)", first[1], first)
	}
	if first[0] >= first[2] {
		t.Fatalf("ejection serialization lost: delivery times %d, %d", first[0], first[2])
	}
}

// TestFlushWindowFIFOPairOrder: two same-cycle sends from one source keep
// their program order through the flush (sort stability).
func TestFlushWindowFIFOPairOrder(t *testing.T) {
	eng, p, nw := portNet(DefaultConfig(4, 1))
	var got []uint64
	for id := 0; id < 4; id++ {
		nw.Register(NodeID(id), func(pkt *Packet) {
			got = append(got, pkt.Payload.(uint64))
		})
	}
	p.SendFrom(0, 3, 2, uint64(1))
	p.SendFrom(0, 3, 2, uint64(2))
	eng.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("per-source order not preserved: %v", got)
	}
}

func TestShardPortLocalDelivery(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	eng, p, nw := portNet(cfg)
	delivered := sim.Time(-1)
	nw.Register(2, func(pkt *Packet) { delivered = eng.Now() })
	p.SendFrom(2, 2, 2, nil)
	eng.Run()
	if delivered != LocalLatency {
		t.Fatalf("local delivery at %d, want %d", delivered, LocalLatency)
	}
	if p.Stats().LocalPackets != 1 {
		t.Fatalf("local packet not accounted: %+v", p.Stats())
	}
	if nw.Stats().LocalPackets != 1 {
		t.Fatal("port stats not reported as network stats")
	}
}

func TestFlushWindowLookaheadViolationPanics(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	// Bind a lookahead one cycle longer than the network keeps: a two-flit
	// packet to the neighbouring node arrives after exactly
	// MinPacketLatency(2) cycles, inside the bound lookahead, so the flush
	// must detect the violation rather than deliver inside it.
	eng := sim.New()
	nw := New(cfg)
	p := nw.Bind(eng, cfg.MinPacketLatency(2)+1)
	p.SendFrom(0, 1, 2, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a delivery inside the lookahead did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "lookahead violation") {
			t.Fatalf("panic %q is not the lookahead violation", msg)
		}
	}()
	nw.FlushWindow(sim.Forever)
}

// TestFlushWindowSendPastBarrierPanics: a flush claims every logged send,
// so a send logged at or past the barrier — the engine run beyond the
// flush a caller drives itself — must panic and name the send, not wait in
// the log for a later flush.
func TestFlushWindowSendPastBarrierPanics(t *testing.T) {
	eng, p, nw := portNet(DefaultConfig(4, 1))
	eng.SetCycleHook(func() {}) // the test drives the flush
	eng.At(12, func() { p.SendFrom(1, 3, 2, nil) })
	eng.Run()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a send at cycle 12 flushed at barrier 10 did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "1->3 at cycle 12") {
			t.Fatalf("panic %q does not name the send 1->3 at cycle 12", msg)
		}
	}()
	nw.FlushWindow(10)
}

func TestMinPacketLatency(t *testing.T) {
	cfg := DefaultConfig(8, 8)
	// inject(1) + hop(1) + 2 flits · 1 = 4: the default lookahead.
	if w := cfg.MinPacketLatency(2); w != 4 {
		t.Fatalf("mesh window = %d, want 4", w)
	}
	ideal := cfg
	ideal.Topology = Ideal
	if w := ideal.MinPacketLatency(2); w != 1+8+2 {
		t.Fatalf("ideal window = %d, want 11", w)
	}
	// With no hop latency the fixed inject and flit cycles remain: a
	// request for fewer than one flit counts one.
	zeroHop := Config{Width: 2, Height: 2}
	if w := zeroHop.MinPacketLatency(0); w != InjectLatency+FlitCycle {
		t.Fatalf("zero-hop window = %d, want %d", w, InjectLatency+FlitCycle)
	}
}

// TestShardedMatchesSequentialTiming: an uncontended packet whose flush
// the caller drives — as a model checker choosing which logged send to
// deliver next would — takes exactly the same cycles as one flushed by the
// engine's end-of-cycle hook.
func TestShardedMatchesSequentialTiming(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	run := func(driven bool) (sim.Time, Stats) {
		eng, p, nw := portNet(cfg)
		var at sim.Time
		for id := 0; id < 16; id++ {
			nw.Register(NodeID(id), func(*Packet) { at = eng.Now() })
		}
		if driven {
			eng.SetCycleHook(func() {})
		}
		p.SendFrom(0, 15, 3, nil)
		if driven {
			nw.FlushWindow(1)
		}
		eng.Run()
		return at, nw.Stats()
	}
	hookAt, _ := run(false)
	drivenAt, s := run(true)
	if drivenAt != hookAt {
		t.Fatalf("driven flush delivered at %d, end-of-cycle hook at %d", drivenAt, hookAt)
	}
	if s.Packets != 1 || s.Flits != 3 || s.TotalLatency != drivenAt {
		t.Fatalf("stats wrong: %+v", s)
	}
}

// spinner is a stand-in for a node's processor with a spin off the queue:
// Wake logs its limit and, when the spin was off, queues the spin's next
// step, due at at, under the key drawn right then.
type spinner struct {
	eng    *sim.Engine
	off    bool
	at     sim.Time
	limits []sim.Time
	order  *[]string
}

func (s *spinner) Wake(limit sim.Time) {
	s.limits = append(s.limits, limit)
	if !s.off {
		return
	}
	s.off = false
	s.eng.At(s.at, func() { *s.order = append(*s.order, "step") })
}

// TestWakeBeforeFlushInsert: the flush wakes an off-queue spin at
// the destination through the send cycle before it inserts the delivery,
// so the spin's next step, due in the delivery's cycle, keeps its place
// ahead of it; and the delivery wakes the destination before its handler
// runs, through the cycle before its own.
func TestWakeBeforeFlushInsert(t *testing.T) {
	// run sends one packet from node 0 to node 2 at cycle 3 and returns when
	// it arrives and the order its delivery and the spin's step fired in.
	run := func(s *spinner) (sim.Time, []string) {
		eng, nw, port := newTest(4, 1)
		var order []string
		var arrived sim.Time
		if s != nil {
			s.eng, s.order = eng, &order
			port.SetWaker(2, s)
			eng.At(9, func() { s.off = true }) // the spin leaves the queue again
		}
		nw.Register(2, func(*Packet) {
			arrived = eng.Now()
			order = append(order, "delivery")
		})
		eng.At(3, func() { port.SendFrom(0, 2, 2, nil) })
		eng.Run()
		return arrived, order
	}
	due, _ := run(nil)
	s := &spinner{off: true, at: due} // the spin's next step falls in the delivery's cycle
	arrived, order := run(s)
	if arrived != due {
		t.Fatalf("delivery arrived at %d with a spinner, %d without", arrived, due)
	}
	if len(order) != 2 || order[0] != "step" || order[1] != "delivery" {
		t.Errorf("fire order %v, want the spin's step before the delivery", order)
	}
	want := []sim.Time{3, due - 1}
	if len(s.limits) != 2 || s.limits[0] != want[0] || s.limits[1] != want[1] {
		t.Errorf("wake limits %v, want %v (the send cycle at the flush, then the cycle before the delivery)", s.limits, want)
	}
}
