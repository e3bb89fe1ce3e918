package mesh

import (
	"testing"

	"limitless/internal/fault"
	"limitless/internal/sim"
)

// newLossyTest builds a one-engine network with the reliable transport
// armed under the given fault config (loss rates must be nonzero) and
// returns the engine, the network and its one port.
func newLossyTest(t *testing.T, w, h int, fc fault.Config) (*sim.Engine, *Network, *ShardPort) {
	t.Helper()
	eng := sim.New()
	nw := New(DefaultConfig(w, h))
	plan := fault.New(fc)
	if plan == nil {
		t.Fatal("fault config produced a nil plan")
	}
	nw.EnableTransport(plan, nw.Config().MinPacketLatency(2), 0)
	return eng, nw, onePort(eng, nw)
}

func TestTransportInOrderDeliveryUnderDrops(t *testing.T) {
	eng, nw, p := newLossyTest(t, 4, 4, fault.Config{Seed: 11, DropRate: 0.4})
	src, dst := NodeID(0), NodeID(5)
	const n = 60
	var got []uint64
	replays := 0
	nw.Register(dst, func(p *Packet) {
		if p.Replay {
			replays++
			return
		}
		got = append(got, p.Payload.(uint64))
	})
	for i := 0; i < n; i++ {
		p.SendFrom(src, dst, 2, uint64(i))
	}
	eng.Run()
	if len(got) != n {
		t.Fatalf("delivered %d packets, want %d (stuck links: %v)", len(got), n, nw.StuckLinks())
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("delivery %d carried payload %d: per-link order broken (%v)", i, v, got)
		}
	}
	ts := nw.TransportStats()
	if ts.Drops == 0 || ts.Retransmits == 0 {
		t.Fatalf("drop=0.4 over %d sends but stats = %+v", n, ts)
	}
	if ts.Retransmits < ts.Drops {
		t.Fatalf("every drop must be re-sent: %+v", ts)
	}
	// Every ack-loss replay arrives exactly once and is recognized as a
	// duplicate; those that catch their original still in the reorder buffer
	// are discarded there, the rest reach the handler Replay-marked.
	if ts.DupArrivals != ts.Replays {
		t.Fatalf("%d replays sent but %d duplicate arrivals recognized", ts.Replays, ts.DupArrivals)
	}
	if uint64(replays) > ts.Replays {
		t.Fatalf("handler saw %d replay deliveries, stats say only %d were sent", replays, ts.Replays)
	}
	if len(nw.StuckLinks()) != 0 {
		t.Fatalf("unexpected stuck links: %v", nw.StuckLinks())
	}
	if nw.InFlight() != 0 {
		t.Fatalf("in-flight accounting nonzero after drain: %d", nw.InFlight())
	}
}

func TestTransportCorruptionDetectedAndRecovered(t *testing.T) {
	eng, nw, p := newLossyTest(t, 4, 4, fault.Config{Seed: 7, CorruptRate: 0.5})
	src, dst := NodeID(2), NodeID(13)
	const n = 40
	delivered := 0
	nw.Register(dst, func(p *Packet) {
		if !p.Replay {
			delivered++
		}
	})
	for i := 0; i < n; i++ {
		p.SendFrom(src, dst, 2, nil)
	}
	eng.Run()
	if delivered != n {
		t.Fatalf("delivered %d, want %d", delivered, n)
	}
	ts := nw.TransportStats()
	if ts.Corrupts == 0 {
		t.Fatal("corrupt=0.5 never corrupted a packet")
	}
	// Every corrupted attempt is delivered, detected by checksum at the
	// receiver, discarded there, and re-sent.
	if ts.ChecksumDrops != ts.Corrupts {
		t.Fatalf("corrupted %d attempts but receiver discarded %d", ts.Corrupts, ts.ChecksumDrops)
	}
	if ts.Retransmits < ts.Corrupts {
		t.Fatalf("every corruption must trigger a resend: %+v", ts)
	}
}

func TestTransportBudgetExhaustionReportsStuckLink(t *testing.T) {
	eng, nw, p := newLossyTest(t, 4, 4, fault.Config{
		Seed: 3, DropRate: 1, RetransTimeout: 16, RetransMax: 3})
	src, dst := NodeID(1), NodeID(14)
	nw.Register(dst, func(p *Packet) { t.Fatal("drop=1 must never deliver") })
	fired := 0
	nw.OnTransportStuck(func(s StuckLink) {
		fired++
		if s.Src != src || s.Dst != dst {
			t.Fatalf("stuck link %d->%d, want %d->%d", s.Src, s.Dst, src, dst)
		}
	})
	p.SendFrom(src, dst, 2, nil)
	eng.Run()
	if fired != 1 {
		t.Fatalf("onStuck fired %d times, want 1", fired)
	}
	stuck := nw.StuckLinks()
	if len(stuck) != 1 {
		t.Fatalf("StuckLinks = %v, want exactly one", stuck)
	}
	s := stuck[0]
	// rmax=3 allows the first attempt plus three retransmissions.
	if s.Attempts != 4 {
		t.Fatalf("attempts = %d, want 4 (1 first + rmax=3 retries)", s.Attempts)
	}
	if s.Seq != 0 || s.NextSeq != 1 {
		t.Fatalf("unacked window = [%d, %d), want [0, 1)", s.Seq, s.NextSeq)
	}
	if s.LastSent <= s.FirstSent {
		t.Fatalf("retransmissions did not advance time: first=%d last=%d", s.FirstSent, s.LastSent)
	}
	// The engine must have halted on its own — no hang, no watchdog needed.
	if ts := nw.TransportStats(); ts.Drops != 4 || ts.Retransmits != 3 {
		t.Fatalf("stats = %+v, want 4 drops / 3 retransmits", ts)
	}
}

func TestTransportDeterministicRerun(t *testing.T) {
	run := func() ([]sim.Time, TransportStats) {
		eng := sim.New()
		nw := New(DefaultConfig(4, 4))
		nw.EnableTransport(fault.New(fault.Config{Seed: 21, DropRate: 0.3, CorruptRate: 0.2}),
			nw.Config().MinPacketLatency(2), 0)
		p := onePort(eng, nw)
		var times []sim.Time
		for d := NodeID(0); d < 16; d++ {
			d := d
			nw.Register(d, func(p *Packet) {
				if !p.Replay {
					times = append(times, eng.Now())
				}
			})
		}
		for i := 0; i < 50; i++ {
			p.SendFrom(NodeID(i%16), NodeID((i*7)%16), 2, nil)
		}
		eng.Run()
		return times, nw.TransportStats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across reruns: %+v vs %+v", s1, s2)
	}
	if len(t1) != len(t2) {
		t.Fatalf("delivery counts differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("delivery %d at cycle %d vs %d", i, t1[i], t2[i])
		}
	}
}

func TestEnableTransportRequiresLoss(t *testing.T) {
	nw := New(DefaultConfig(4, 4))
	defer func() {
		if recover() == nil {
			t.Fatal("EnableTransport without a loss class must panic")
		}
	}()
	nw.EnableTransport(fault.New(fault.Config{Seed: 1, DelayRate: 0.5}), 4, 0)
}

// TestTransportPayloadOwnership: the network owns a payload from SendFrom
// until its packet's last delivery returns, and then hands it back through
// Spare exactly once. Every node sends distinct pointer payloads, local
// ones included, and every handler drains Spare as a sender would. A
// handler must never see a payload Spare has returned, and Spare must
// never return one before its packet's delivery: either means the port
// released a payload a later attempt still carried (a corrupted arrival's
// retransmission, an ack-lost arrival's replay, a held arrival whose
// replay was discarded). With drops, some replays must meet their
// original still held, so the duplicate-of-held path runs.
func TestTransportPayloadOwnership(t *testing.T) {
	for _, tc := range []struct {
		name string
		fc   *fault.Config
	}{
		{"no-plan", nil},
		{"drop", &fault.Config{Seed: 11, DropRate: 0.4, RetransMax: 40}},
		{"corrupt", &fault.Config{Seed: 7, CorruptRate: 0.5, RetransMax: 40}},
		{"drop-corrupt-delay-stall", &fault.Config{Seed: 5, DropRate: 0.3, CorruptRate: 0.2,
			DelayRate: 0.3, StallRate: 0.2, RetransMax: 40}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			cfg := DefaultConfig(4, 4)
			if tc.fc != nil {
				cfg.Faults = fault.New(*tc.fc)
			}
			nw := New(cfg)
			if tc.fc != nil {
				nw.EnableTransport(cfg.Faults, cfg.MinPacketLatency(2), 0)
			}
			p := onePort(eng, nw)

			type token struct {
				src, dst NodeID
				n        int
			}
			delivered := map[*token]int{} // non-replay deliveries
			back := map[*token]int{}      // returns through Spare
			last := map[[2]NodeID]int{}   // per-link order
			replays := 0
			drain := func() {
				for pl := p.Spare(); pl != nil; pl = p.Spare() {
					tk := pl.(*token)
					if delivered[tk] == 0 {
						t.Fatalf("%+v came back from Spare before its delivery", *tk)
					}
					if back[tk]++; back[tk] > 1 {
						t.Fatalf("%+v came back from Spare twice", *tk)
					}
				}
			}
			for id := NodeID(0); id < 16; id++ {
				nw.Register(id, func(pkt *Packet) {
					tk := pkt.Payload.(*token)
					if back[tk] > 0 {
						t.Fatalf("%+v reached node %d after Spare returned it", *tk, pkt.Dst)
					}
					if pkt.Replay {
						replays++
					} else {
						delivered[tk]++
						k := [2]NodeID{tk.src, tk.dst}
						if tk.n <= last[k] {
							t.Fatalf("%+v delivered after payload %d of its link", *tk, last[k])
						}
						last[k] = tk.n
					}
					drain()
				})
			}
			const perSrc = 50
			var sent []*token
			for i := 1; i <= perSrc; i++ {
				for src := NodeID(0); src < 16; src++ {
					tk := &token{src: src, dst: (src*5 + NodeID(i)*7) % 16, n: i}
					sent = append(sent, tk)
					eng.At(sim.Time(3*i), func() { p.SendFrom(tk.src, tk.dst, 2, tk) })
				}
			}
			eng.Run()
			drain()

			for _, tk := range sent {
				if delivered[tk] != 1 || back[tk] != 1 {
					t.Fatalf("%+v delivered %d times and came back %d times, want once each",
						*tk, delivered[tk], back[tk])
				}
			}
			if n := nw.InFlight(); n != 0 {
				t.Fatalf("%d packets in flight at quiescence", n)
			}
			if s := nw.StuckLinks(); len(s) != 0 {
				t.Fatalf("stuck links: %v", s)
			}
			ts := nw.TransportStats()
			if tc.fc != nil && tc.fc.DropRate > 0 && ts.DupArrivals <= uint64(replays) {
				t.Fatalf("%d duplicate arrivals, %d of them delivered Replay-marked: no replay met its original held",
					ts.DupArrivals, replays)
			}
			t.Logf("%d payloads; transport %+v; %d replays delivered", len(sent), ts, replays)
		})
	}
}
