package machine

import (
	"fmt"
	"sort"
	"strings"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/fault"
	"limitless/internal/mesh"
	"limitless/internal/sim"
)

// BlockedOp is one cache-side transaction still outstanding when the
// machine halted: which node is waiting, on which block, for what, since
// when, and how many BUSY retries it has burned.
type BlockedOp struct {
	Node    int
	Addr    directory.Addr
	Type    coherence.MsgType
	Issued  sim.Time
	Retries int
}

// SpinningCtx is one processor context halted inside a spin-wait: which
// node, the address it polls and the value its last failed poll read. Its
// polls all commit, so it never shows among the blocked operations.
type SpinningCtx struct {
	Node int
	Addr directory.Addr
	Last uint64
}

// EntryState snapshots a non-quiescent directory entry: one that is mid
// transaction, interlocked for software, or holding an acknowledgment
// count — the directory-side half of whatever wedged the machine.
type EntryState struct {
	Home    int
	Addr    directory.Addr
	State   string
	Meta    string
	AckCtr  int
	Pending int
}

// Diagnostic is the structured failure report of a halted run: instead of
// a panic or a silent hang, a watchdog trip or drained-queue deadlock
// produces this snapshot of everything still in motion.
type Diagnostic struct {
	// Cycle is the simulation time at halt.
	Cycle sim.Time
	// Reason says why the machine stopped.
	Reason string
	// InFlight counts network packets injected but not yet ejected.
	InFlight int
	// PendingEvents counts simulation events still queued across engines.
	PendingEvents int
	// Blocked lists the outstanding cache-side transactions, ordered by
	// (node, block address).
	Blocked []BlockedOp
	// Spinning lists the contexts halted inside a spin-wait, ordered by
	// (node, context).
	Spinning []SpinningCtx
	// Entries lists the non-quiescent directory entries, ordered by
	// (home node, block address).
	Entries []EntryState
	// IPIQueued is the number of trapped packets still sitting in IPI input
	// queues; IPIMax is the deepest any queue ever got.
	IPIQueued, IPIMax int
	// Violations are the recorded protocol violations, in cycle order.
	Violations []fault.Violation
	// Drops, Corrupts and Retransmits are the reliable transport's loss and
	// recovery totals at halt (zero when loss injection was off).
	Drops, Corrupts, Retransmits uint64
	// StuckLinks lists the links whose retransmit budget ran out, in the
	// canonical order the transport recorded them.
	StuckLinks []mesh.StuckLink
}

// diagListCap bounds how many blocked ops / directory entries / violations
// the formatted dump prints in full; the counts always report the totals.
const diagListCap = 16

// String renders the diagnostic as a multi-line human-readable report.
func (d *Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simulation halted at cycle %d: %s\n", d.Cycle, d.Reason)
	fmt.Fprintf(&b, "  in-flight packets: %d; pending events: %d; IPI queued: %d (high-water %d)\n",
		d.InFlight, d.PendingEvents, d.IPIQueued, d.IPIMax)
	if d.Drops > 0 || d.Corrupts > 0 || d.Retransmits > 0 || len(d.StuckLinks) > 0 {
		fmt.Fprintf(&b, "  transport: %d dropped, %d corrupted, %d retransmitted; stuck links: %d\n",
			d.Drops, d.Corrupts, d.Retransmits, len(d.StuckLinks))
		for i, s := range d.StuckLinks {
			if i == diagListCap {
				fmt.Fprintf(&b, "    ... and %d more\n", len(d.StuckLinks)-i)
				break
			}
			fmt.Fprintf(&b, "    link %d->%d seq=%d next=%d attempts=%d first=%d last=%d\n",
				s.Src, s.Dst, s.Seq, s.NextSeq, s.Attempts, s.FirstSent, s.LastSent)
		}
	}
	fmt.Fprintf(&b, "  blocked operations: %d\n", len(d.Blocked))
	for i, op := range d.Blocked {
		if i == diagListCap {
			fmt.Fprintf(&b, "    ... and %d more\n", len(d.Blocked)-i)
			break
		}
		fmt.Fprintf(&b, "    node %d %s addr=%#x issued=%d retries=%d\n",
			op.Node, op.Type, uint64(op.Addr), op.Issued, op.Retries)
	}
	if len(d.Spinning) > 0 {
		fmt.Fprintf(&b, "  spinning contexts: %d\n", len(d.Spinning))
		for i, s := range d.Spinning {
			if i == diagListCap {
				fmt.Fprintf(&b, "    ... and %d more\n", len(d.Spinning)-i)
				break
			}
			fmt.Fprintf(&b, "    node %d addr=%#x last=%d\n", s.Node, uint64(s.Addr), s.Last)
		}
	}
	fmt.Fprintf(&b, "  non-quiescent directory entries: %d\n", len(d.Entries))
	for i, e := range d.Entries {
		if i == diagListCap {
			fmt.Fprintf(&b, "    ... and %d more\n", len(d.Entries)-i)
			break
		}
		fmt.Fprintf(&b, "    home %d addr=%#x state=%s meta=%s ackctr=%d pending=%d\n",
			e.Home, uint64(e.Addr), e.State, e.Meta, e.AckCtr, e.Pending)
	}
	fmt.Fprintf(&b, "  protocol violations: %d\n", len(d.Violations))
	for i, v := range d.Violations {
		if i == diagListCap {
			fmt.Fprintf(&b, "    ... and %d more\n", len(d.Violations)-i)
			break
		}
		fmt.Fprintf(&b, "    %s\n", v)
	}
	return b.String()
}

// buildDiagnostic snapshots the machine's in-flight state. It runs only
// after the engines have stopped, so reading controller state is safe.
func (m *Machine) buildDiagnostic(end sim.Time, reason string) *Diagnostic {
	d := &Diagnostic{Cycle: end, Reason: reason, InFlight: m.Net.InFlight()}
	for _, e := range m.engines {
		d.PendingEvents += e.Pending()
	}
	for _, n := range m.Nodes {
		for _, op := range n.CC.OutstandingOps() {
			d.Blocked = append(d.Blocked, BlockedOp{
				Node: int(n.ID), Addr: op.Addr, Type: op.Type,
				Issued: op.Issued, Retries: op.Retries,
			})
		}
		n.Proc.Spins(func(addr directory.Addr, last uint64) {
			d.Spinning = append(d.Spinning, SpinningCtx{Node: int(n.ID), Addr: addr, Last: last})
		})
		n.MC.Dir().ForEach(func(addr directory.Addr, e *directory.Entry) {
			if e.State != directory.ReadTransaction && e.State != directory.WriteTransaction &&
				e.Meta != directory.TransInProgress && e.AckCtr == 0 && e.Pending == 0 {
				return
			}
			d.Entries = append(d.Entries, EntryState{
				Home: int(n.ID), Addr: addr,
				State: e.State.String(), Meta: e.Meta.String(),
				AckCtr: e.AckCtr, Pending: e.Pending,
			})
		})
		q := n.MC.IPIQueue()
		d.IPIQueued += q.Len()
		if hw := q.MaxLen(); hw > d.IPIMax {
			d.IPIMax = hw
		}
	}
	// Nodes are visited in ID order and ForEach walks addresses in
	// ascending order, so Blocked and per-node entries are already sorted;
	// the cross-node entry sort is a formality that keeps the contract
	// independent of traversal details.
	sort.Slice(d.Entries, func(i, j int) bool {
		if d.Entries[i].Home != d.Entries[j].Home {
			return d.Entries[i].Home < d.Entries[j].Home
		}
		return d.Entries[i].Addr < d.Entries[j].Addr
	})
	if m.rec != nil {
		d.Violations = m.rec.Violations()
	}
	if m.Net.TransportActive() {
		ts := m.Net.TransportStats()
		d.Drops, d.Corrupts = ts.Drops, ts.Corrupts
		d.Retransmits = ts.Retransmits + ts.Replays
		d.StuckLinks = m.Net.StuckLinks()
	}
	return d
}
