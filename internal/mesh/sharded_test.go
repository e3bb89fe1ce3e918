package mesh

import (
	"testing"

	"limitless/internal/sim"
)

func shardedNet(t *testing.T, cfg Config, shards int) ([]*sim.Engine, []*ShardPort, *Network, []int) {
	t.Helper()
	n := cfg.Width * cfg.Height
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		engines[i] = sim.New()
		engines[i].SetCycleSeq(true)
	}
	nodeShard := make([]int, n)
	for id := range nodeShard {
		nodeShard[id] = id * shards / n
	}
	nw := New(cfg)
	ports := nw.ShardPorts(engines, nodeShard, cfg.MinPacketLatency(2))
	return engines, ports, nw, nodeShard
}

// TestFlushWindowCanonicalMerge: same-cycle sends logged on different shards
// in arbitrary shard order must claim the shared ejection channel in source
// order, so the inbox merge — not the log order — decides contention.
func TestFlushWindowCanonicalMerge(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	run := func(reversed bool) []sim.Time {
		engines, ports, nw, _ := shardedNet(t, cfg, 2)
		var got []sim.Time
		for id := 0; id < 4; id++ {
			nw.Register(NodeID(id), func(pkt *Packet) {
				got = append(got, engines[1].Now(), sim.Time(pkt.Src))
			})
		}
		// Nodes 1 (shard 0) and 2 (shard 1) both send to node 3 (shard 1)
		// at cycle 0. Gathering order across ports must not matter.
		a, b := ports[0], ports[1]
		if reversed {
			b.SendFrom(2, 3, 2, nil)
			a.SendFrom(1, 3, 2, nil)
		} else {
			a.SendFrom(1, 3, 2, nil)
			b.SendFrom(2, 3, 2, nil)
		}
		nw.FlushWindow(sim.Forever, nil)
		engines[1].Run()
		return got
	}
	first := run(false)
	second := run(true)
	if len(first) != 4 || len(first) != len(second) {
		t.Fatalf("deliveries: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("merge depends on log order: %v vs %v", first, second)
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
// their program order through the merge (sort stability).
func TestFlushWindowFIFOPairOrder(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	engines, ports, nw, _ := shardedNet(t, cfg, 2)
	var got []uint64
	for id := 0; id < 4; id++ {
		nw.Register(NodeID(id), func(pkt *Packet) {
			got = append(got, pkt.Payload.(uint64))
		})
	}
	ports[0].SendFrom(0, 3, 2, uint64(1))
	ports[0].SendFrom(0, 3, 2, uint64(2))
	nw.FlushWindow(sim.Forever, nil)
	engines[1].Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("per-source order not preserved: %v", got)
	}
}

func TestShardPortLocalDelivery(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	engines, ports, nw, nodeShard := shardedNet(t, cfg, 2)
	delivered := sim.Time(-1)
	nw.Register(2, func(pkt *Packet) { delivered = engines[nodeShard[2]].Now() })
	p := ports[nodeShard[2]]
	p.SendFrom(2, 2, 2, nil)
	engines[nodeShard[2]].Run()
	if delivered != cfg.LocalLatency {
		t.Fatalf("local delivery at %d, want %d", delivered, cfg.LocalLatency)
	}
	if p.Stats().LocalPackets != 1 {
		t.Fatalf("local packet not accounted: %+v", p.Stats())
	}
	if nw.Stats().LocalPackets != 1 {
		t.Fatal("port stats not folded into network stats")
	}
}

func TestFlushWindowLookaheadViolationPanics(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	// Zero every latency constant: the true minimum latency collapses to 0
	// while MinPacketLatency clamps to 1, so the flush must detect the
	// violated window rather than deliver into the past.
	cfg.HopLatency, cfg.FlitCycle, cfg.InjectLatency = 0, 0, 0
	engines, ports, nw, _ := shardedNet(t, cfg, 2)
	_ = engines
	ports[0].SendFrom(0, 3, 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("flush with zero network latency did not panic")
		}
	}()
	nw.FlushWindow(sim.Forever, nil)
}

func TestMinPacketLatency(t *testing.T) {
	cfg := DefaultConfig(8, 8)
	// inject(1) + hop(1) + 2 flits · 1 = 4: the default lookahead window.
	if w := cfg.MinPacketLatency(2); w != 4 {
		t.Fatalf("mesh window = %d, want 4", w)
	}
	ideal := cfg
	ideal.Topology = Ideal
	if w := ideal.MinPacketLatency(2); w != 1+8+2 {
		t.Fatalf("ideal window = %d, want 11", w)
	}
	degenerate := Config{Width: 2, Height: 2}
	if w := degenerate.MinPacketLatency(0); w != 1 {
		t.Fatalf("degenerate window = %d, want clamp to 1", w)
	}
}

// TestShardedMatchesSequentialTiming: an uncontended packet flushed at a
// window barrier takes exactly the same cycles as on one engine, whose port
// flushes at the end of the send cycle.
func TestShardedMatchesSequentialTiming(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	// One-engine reference.
	seqEng := sim.New()
	seqNW := New(cfg)
	seqPort := onePort(seqEng, seqNW)
	var seqAt sim.Time
	for id := 0; id < 16; id++ {
		seqNW.Register(NodeID(id), func(*Packet) { seqAt = seqEng.Now() })
	}
	seqPort.SendFrom(0, 15, 3, nil)
	seqEng.Run()

	engines, ports, nw, nodeShard := shardedNet(t, cfg, 4)
	var shAt sim.Time
	for id := 0; id < 16; id++ {
		nw.Register(NodeID(id), func(*Packet) { shAt = engines[nodeShard[15]].Now() })
	}
	ports[nodeShard[0]].SendFrom(0, 15, 3, nil)
	nw.FlushWindow(sim.Forever, nil)
	engines[nodeShard[15]].Run()
	if shAt != seqAt {
		t.Fatalf("sharded uncontended delivery at %d, sequential at %d", shAt, seqAt)
	}
	s := nw.Stats()
	if s.Packets != 1 || s.Flits != 3 || s.TotalLatency != shAt {
		t.Fatalf("merged stats wrong: %+v", s)
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

// TestWakeBeforeFlushInsert: a one-engine flush wakes an off-queue spin at
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
