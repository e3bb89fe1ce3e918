package coherence_test

import (
	"testing"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/mesh"
)

// Table 2 of the paper, encoded as data: each row sets up a directory
// entry (state + pointer set + AckCtr), injects the input message, and
// checks the new state, pointer set, acknowledgment counter, and output
// messages. Node 1 is the home; i = node 0, j = node 2, k1/k2 = nodes 0, 2.
//
// Each specification row also names the transition-table row
// (internal/protocol, full-map/memory table) that implements it; the test
// verifies the mapping through the runtime coverage recorder, so the
// paper's Table 2 and the declarative tables can never silently diverge.
type table2Row struct {
	name string
	row  string // implementing row ID in the full-map/memory table

	// setup
	state  directory.State
	ptrs   []mesh.NodeID
	ackCtr int
	value  uint64

	// input
	src mesh.NodeID
	msg coherence.MsgType
	val uint64

	// expectations
	wantState  directory.State
	wantPtrs   []mesh.NodeID
	wantAckCtr int
	wantValue  uint64
	wantOut    []sentMsg // in order of transmission
}

func table2Rows() []table2Row {
	i, j := mesh.NodeID(0), mesh.NodeID(2)
	return []table2Row{
		{
			name: "1: RREQ in Read-Only adds pointer, RDATA", row: "ro-rreq-grant",
			state: directory.ReadOnly, ptrs: nil, value: 9,
			src: i, msg: coherence.RREQ,
			wantState: directory.ReadOnly, wantPtrs: []mesh.NodeID{i}, wantValue: 9,
			wantOut: []sentMsg{{i, coherence.Msg{Type: coherence.RDATA, Value: 9}}},
		},
		{
			name: "2a: WREQ with P={} grants WDATA", row: "ro-wreq-grant",
			state: directory.ReadOnly, ptrs: nil, value: 4,
			src: i, msg: coherence.WREQ,
			wantState: directory.ReadWrite, wantPtrs: []mesh.NodeID{i}, wantValue: 4,
			wantOut: []sentMsg{{i, coherence.Msg{Type: coherence.WDATA, Value: 4}}},
		},
		{
			name: "2b: WREQ with P={i} grants WDATA", row: "ro-wreq-grant",
			state: directory.ReadOnly, ptrs: []mesh.NodeID{i}, value: 4,
			src: i, msg: coherence.WREQ,
			wantState: directory.ReadWrite, wantPtrs: []mesh.NodeID{i}, wantValue: 4,
			wantOut: []sentMsg{{i, coherence.Msg{Type: coherence.WDATA, Value: 4}}},
		},
		{
			name: "3a: WREQ from outsider invalidates every pointer", row: "ro-wreq-invalidate",
			state: directory.ReadOnly, ptrs: []mesh.NodeID{i, j}, value: 4,
			src: mesh.NodeID(1), msg: coherence.WREQ, // home's own processor writes
			wantState: directory.WriteTransaction, wantPtrs: []mesh.NodeID{1}, wantAckCtr: 2, wantValue: 4,
			wantOut: []sentMsg{
				{i, coherence.Msg{Type: coherence.INV}},
				{j, coherence.Msg{Type: coherence.INV}},
			},
		},
		{
			name: "3b: WREQ from a member spares the requester (AckCtr = n-1)", row: "ro-wreq-invalidate",
			state: directory.ReadOnly, ptrs: []mesh.NodeID{i, j}, value: 4,
			src: i, msg: coherence.WREQ,
			wantState: directory.WriteTransaction, wantPtrs: []mesh.NodeID{i}, wantAckCtr: 1, wantValue: 4,
			wantOut: []sentMsg{{j, coherence.Msg{Type: coherence.INV}}},
		},
		{
			name: "4: WREQ in Read-Write invalidates the owner", row: "rw-wreq",
			state: directory.ReadWrite, ptrs: []mesh.NodeID{i}, value: 4,
			src: j, msg: coherence.WREQ,
			wantState: directory.WriteTransaction, wantPtrs: []mesh.NodeID{j}, wantAckCtr: 1, wantValue: 4,
			wantOut: []sentMsg{{i, coherence.Msg{Type: coherence.INV}}},
		},
		{
			name: "5: RREQ in Read-Write invalidates the owner", row: "rw-rreq",
			state: directory.ReadWrite, ptrs: []mesh.NodeID{i}, value: 4,
			src: j, msg: coherence.RREQ,
			wantState: directory.ReadTransaction, wantPtrs: []mesh.NodeID{j}, wantValue: 4,
			wantOut: []sentMsg{{i, coherence.Msg{Type: coherence.INV}}},
		},
		{
			name: "6: REPM from the owner empties the directory", row: "rw-repm",
			state: directory.ReadWrite, ptrs: []mesh.NodeID{i}, value: 4,
			src: i, msg: coherence.REPM, val: 17,
			wantState: directory.ReadOnly, wantPtrs: nil, wantValue: 17,
			wantOut: nil,
		},
		{
			name: "7a: RREQ during Write-Transaction bounces BUSY", row: "wt-rreq-busy",
			state: directory.WriteTransaction, ptrs: []mesh.NodeID{i}, ackCtr: 2, value: 4,
			src: j, msg: coherence.RREQ,
			wantState: directory.WriteTransaction, wantPtrs: []mesh.NodeID{i}, wantAckCtr: 2, wantValue: 4,
			wantOut: []sentMsg{{j, coherence.Msg{Type: coherence.BUSY}}},
		},
		{
			name: "7b: WREQ during Write-Transaction bounces BUSY", row: "wt-wreq-busy",
			state: directory.WriteTransaction, ptrs: []mesh.NodeID{i}, ackCtr: 2, value: 4,
			src: j, msg: coherence.WREQ,
			wantState: directory.WriteTransaction, wantPtrs: []mesh.NodeID{i}, wantAckCtr: 2, wantValue: 4,
			wantOut: []sentMsg{{j, coherence.Msg{Type: coherence.BUSY}}},
		},
		{
			name: "7c: ACKC with AckCtr != 1 decrements", row: "wt-ackc",
			state: directory.WriteTransaction, ptrs: []mesh.NodeID{i}, ackCtr: 2, value: 4,
			src: j, msg: coherence.ACKC,
			wantState: directory.WriteTransaction, wantPtrs: []mesh.NodeID{i}, wantAckCtr: 1, wantValue: 4,
			wantOut: nil,
		},
		{
			name: "7d: REPM during Write-Transaction is absorbed", row: "wt-repm-absorb",
			state: directory.WriteTransaction, ptrs: []mesh.NodeID{i}, ackCtr: 1, value: 4,
			src: j, msg: coherence.REPM, val: 23,
			wantState: directory.WriteTransaction, wantPtrs: []mesh.NodeID{i}, wantAckCtr: 1, wantValue: 23,
			wantOut: nil,
		},
		{
			name: "8a: final ACKC grants WDATA", row: "wt-ackc",
			state: directory.WriteTransaction, ptrs: []mesh.NodeID{i}, ackCtr: 1, value: 4,
			src: j, msg: coherence.ACKC,
			wantState: directory.ReadWrite, wantPtrs: []mesh.NodeID{i}, wantAckCtr: 0, wantValue: 4,
			wantOut: []sentMsg{{i, coherence.Msg{Type: coherence.WDATA, Value: 4}}},
		},
		{
			name: "8b: UPDATE grants WDATA with the returned data", row: "wt-update",
			state: directory.WriteTransaction, ptrs: []mesh.NodeID{i}, ackCtr: 1, value: 4,
			src: j, msg: coherence.UPDATE, val: 30,
			wantState: directory.ReadWrite, wantPtrs: []mesh.NodeID{i}, wantAckCtr: 0, wantValue: 30,
			wantOut: []sentMsg{{i, coherence.Msg{Type: coherence.WDATA, Value: 30}}},
		},
		{
			name: "9a: RREQ during Read-Transaction bounces BUSY", row: "rt-rreq-busy",
			state: directory.ReadTransaction, ptrs: []mesh.NodeID{i}, value: 4,
			src: j, msg: coherence.RREQ,
			wantState: directory.ReadTransaction, wantPtrs: []mesh.NodeID{i}, wantValue: 4,
			wantOut: []sentMsg{{j, coherence.Msg{Type: coherence.BUSY}}},
		},
		{
			name: "9b: WREQ during Read-Transaction bounces BUSY", row: "rt-wreq-busy",
			state: directory.ReadTransaction, ptrs: []mesh.NodeID{i}, value: 4,
			src: j, msg: coherence.WREQ,
			wantState: directory.ReadTransaction, wantPtrs: []mesh.NodeID{i}, wantValue: 4,
			wantOut: []sentMsg{{j, coherence.Msg{Type: coherence.BUSY}}},
		},
		{
			name: "9c: REPM during Read-Transaction is absorbed", row: "rt-repm-absorb",
			state: directory.ReadTransaction, ptrs: []mesh.NodeID{i}, value: 4,
			src: j, msg: coherence.REPM, val: 31,
			wantState: directory.ReadTransaction, wantPtrs: []mesh.NodeID{i}, wantValue: 31,
			wantOut: nil,
		},
		{
			name: "10: UPDATE completes the read transaction with RDATA", row: "rt-update",
			state: directory.ReadTransaction, ptrs: []mesh.NodeID{i}, value: 4,
			src: j, msg: coherence.UPDATE, val: 44,
			wantState: directory.ReadOnly, wantPtrs: []mesh.NodeID{i}, wantValue: 44,
			wantOut: []sentMsg{{i, coherence.Msg{Type: coherence.RDATA, Value: 44}}},
		},
	}
}

func TestTable2Conformance(t *testing.T) {
	coherence.SetTableCoverage(true)
	defer coherence.SetTableCoverage(false)
	for _, row := range table2Rows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			n := newNaked(t, params(coherence.FullMap, 0))
			e := n.mc.Dir().Entry(nblk)
			e.State = row.state
			e.AckCtr = row.ackCtr
			e.Value = row.value
			for _, p := range row.ptrs {
				e.Ptrs.Add(p)
			}

			coherence.ResetTableCoverage()
			n.inject(row.src, &coherence.Msg{Type: row.msg, Addr: nblk, Value: row.val, Next: -1})

			// The declared table row must be the one that carried the
			// transition (cross-reference: paper Table 2 ↔ protocol tables).
			fired := false
			for _, rc := range coherence.TableCoverage() {
				if rc.Table == "full-map/memory" && rc.Row == row.row && rc.Count > 0 {
					fired = true
					break
				}
			}
			if !fired {
				t.Errorf("table row %q did not fire for this transition", row.row)
			}

			if e.State != row.wantState {
				t.Errorf("state = %v, want %v", e.State, row.wantState)
			}
			if e.AckCtr != row.wantAckCtr {
				t.Errorf("AckCtr = %d, want %d", e.AckCtr, row.wantAckCtr)
			}
			if e.Value != row.wantValue {
				t.Errorf("value = %d, want %d", e.Value, row.wantValue)
			}
			got := e.Ptrs.Nodes()
			if len(got) != len(row.wantPtrs) {
				t.Errorf("pointers = %v, want %v", got, row.wantPtrs)
			} else {
				for k := range got {
					if got[k] != row.wantPtrs[k] {
						t.Errorf("pointers = %v, want %v", got, row.wantPtrs)
						break
					}
				}
			}
			if len(n.sent) != len(row.wantOut) {
				t.Fatalf("outputs = %d messages, want %d (%+v)", len(n.sent), len(row.wantOut), n.sent)
			}
			for k, want := range row.wantOut {
				gotM := n.sent[k]
				if gotM.dst != want.dst || gotM.msg.Type != want.msg.Type {
					t.Errorf("output %d = %v->%d, want %v->%d", k, gotM.msg.Type, gotM.dst, want.msg.Type, want.dst)
				}
				if want.msg.Type.HasData() && gotM.msg.Value != want.msg.Value {
					t.Errorf("output %d value = %d, want %d", k, gotM.msg.Value, want.msg.Value)
				}
			}
		})
	}
}
