package machine

import (
	"strings"
	"testing"

	"limitless/internal/coherence"
	"limitless/internal/fault"
	"limitless/internal/mesh"
	"limitless/internal/workload"
)

// TestDiagnosticGoldenString pins the formatted diagnostic dump exactly.
// The dump is the primary debugging artifact of a halted run; this test is
// the contract that its shape — every section, every field — stays stable.
func TestDiagnosticGoldenString(t *testing.T) {
	d := &Diagnostic{
		Cycle:         123456,
		Reason:        "reliable transport: link 3->7 exhausted its retransmit budget (9 attempts, seq 41 unacked since cycle 100000)",
		InFlight:      2,
		PendingEvents: 5,
		IPIQueued:     1,
		IPIMax:        4,
		Blocked: []BlockedOp{
			{Node: 1, Addr: 0x4010, Type: coherence.RREQ, Issued: 99980, Retries: 3},
		},
		Entries: []EntryState{
			{Home: 0, Addr: 0x4010, State: "Read-Transaction", Meta: "Normal", AckCtr: 0, Pending: 1},
		},
		Violations: []fault.Violation{
			{Cycle: 100100, Node: 7, Kind: "memctrl-dispatch", Msg: "unsolicited ACKC"},
		},
		Drops:       17,
		Corrupts:    4,
		Retransmits: 21,
		StuckLinks: []mesh.StuckLink{
			{Src: 3, Dst: 7, Seq: 41, NextSeq: 44, Attempts: 9, FirstSent: 100000, LastSent: 120480},
		},
	}
	want := "simulation halted at cycle 123456: reliable transport: link 3->7 exhausted its retransmit budget (9 attempts, seq 41 unacked since cycle 100000)\n" +
		"  in-flight packets: 2; pending events: 5; IPI queued: 1 (high-water 4)\n" +
		"  transport: 17 dropped, 4 corrupted, 21 retransmitted; stuck links: 1\n" +
		"    link 3->7 seq=41 next=44 attempts=9 first=100000 last=120480\n" +
		"  blocked operations: 1\n" +
		"    node 1 RREQ addr=0x4010 issued=99980 retries=3\n" +
		"  non-quiescent directory entries: 1\n" +
		"    home 0 addr=0x4010 state=Read-Transaction meta=Normal ackctr=0 pending=1\n" +
		"  protocol violations: 1\n" +
		"    " + d.Violations[0].String() + "\n"
	if got := d.String(); got != want {
		t.Fatalf("diagnostic dump drifted from golden form:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestDiagnosticOmitsTransportWhenQuiet: without loss injection the dump
// must not grow a transport section.
func TestDiagnosticOmitsTransportWhenQuiet(t *testing.T) {
	d := &Diagnostic{Cycle: 10, Reason: "watchdog: no forward progress"}
	if s := d.String(); strings.Contains(s, "transport:") {
		t.Fatalf("quiet diagnostic grew a transport section:\n%s", s)
	}
}

// TestTransportStuckHaltsMachine drives a machine whose fault plan drops
// every packet: the transport must exhaust its budget, abort the run, and
// surface a structured diagnostic instead of hanging into the watchdog.
func TestTransportStuckHaltsMachine(t *testing.T) {
	params := coherence.DefaultParams(16)
	params.Scheme = coherence.FullMap
	fc, err := fault.Parse("1:drop=1,rto=16,rmax=3")
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{
		Width: 4, Height: 4, Contexts: 1, Params: params,
		Faults: fault.New(fc), Watchdog: 200_000,
	})
	m.SetWorkload(1, 0, workload.NewThread(func(th *workload.Thread) {
		th.Load(coherence.BlockAt(0, 1), func(_ uint64, th *workload.Thread) {})
	}))
	m.Run()
	d := m.Diagnostic()
	if d == nil {
		t.Fatal("lossy-dead run finished without a diagnostic")
	}
	if !strings.Contains(d.Reason, "reliable transport") || !strings.Contains(d.Reason, "retransmit budget") {
		t.Errorf("reason %q does not name the transport", d.Reason)
	}
	if len(d.StuckLinks) == 0 {
		t.Error("diagnostic has no stuck links")
	}
	if d.Drops == 0 || d.Retransmits == 0 {
		t.Errorf("transport counters empty: drops=%d retransmits=%d", d.Drops, d.Retransmits)
	}
	if !strings.Contains(d.String(), "stuck links:") {
		t.Errorf("dump missing the stuck-link section:\n%s", d)
	}
}
