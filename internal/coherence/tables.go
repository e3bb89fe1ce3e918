package coherence

import (
	"fmt"
	"sort"

	"limitless/internal/directory"
	"limitless/internal/fault"
	"limitless/internal/mesh"
	"limitless/internal/protocol"
)

// This file wires the declarative protocol tables (internal/protocol) to
// the controllers. Each scheme's policy module (policy_*.go) registers a
// memory-side and a cache-side table at init; MemoryController.process and
// CacheController.HandleMem are interpreters over them. The shared guard
// and action vocabulary lives in actions_mem.go / actions_cache.go.

// memCtx is the scratch context a memory-side dispatch threads through
// guards and actions. One instance lives inside each MemoryController so
// the indirect Guard/Action calls cannot force a heap allocation per
// message; dispatch never nests (traps and deferred-packet drains run as
// separate events), so a single scratch struct is safe.
type memCtx struct {
	mc  *MemoryController
	src mesh.NodeID
	m   *Msg
	e   *directory.Entry

	// owner memoizes the Read-Write owner for the current dispatch so the
	// guard that identifies it and the action that uses it share one
	// pointer-set walk (the old hand-coded path's allocation profile).
	owner     mesh.NodeID
	haveOwner bool
	// sh memoizes the sharer list for the Read-Only WREQ rows, in the
	// packed directory's compact node type.
	sh     []directory.Node
	haveSh bool
}

// reset clears the per-message scratch state.
func (c *memCtx) reset(src mesh.NodeID, m *Msg, e *directory.Entry) {
	c.src, c.m, c.e = src, m, e
	c.haveOwner, c.haveSh = false, false
	c.sh = nil
}

// ownerNode returns the single sharer of a Read-Write entry. Rows that use
// it run only after the malformed-pointer-set guard row has excluded every
// other shape, so exactly one sharer exists.
func (c *memCtx) ownerNode() mesh.NodeID {
	if !c.haveOwner {
		// The walk goes through the transient ownBuf, not the dispatch-
		// scoped shBuf: only the scalar owner is kept, and sharerList's
		// memoized slice (when a row uses both) stays intact.
		c.mc.ownBuf = c.mc.sharersInto(c.mc.ownBuf, c.e)
		c.owner = mesh.NodeID(c.mc.ownBuf[0])
		c.haveOwner = true
	}
	return c.owner
}

// sharerList returns (and memoizes) the entry's sharer list.
func (c *memCtx) sharerList() []directory.Node {
	if !c.haveSh {
		c.sh = c.mc.sharers(c.e)
		c.haveSh = true
	}
	return c.sh
}

// Cache-side transaction states: the MSHR's view of the block, derived
// from the outstanding transaction (if any) at dispatch time.
const (
	cacheIdle     uint8 = iota // no outstanding transaction
	cacheReadTxn               // RREQ in flight
	cacheWriteTxn              // WREQ in flight
	cacheUncached              // URREQ/UWREQ round trip in flight
)

// cacheCtx is the cache-side scratch dispatch context.
type cacheCtx struct {
	cc  *CacheController
	src mesh.NodeID
	m   *Msg
	t   *txn
}

// txnState classifies the outstanding transaction for the table's state
// axis.
func txnState(t *txn) uint8 {
	if t == nil {
		return cacheIdle
	}
	switch t.msg.Type {
	case RREQ:
		return cacheReadTxn
	case WREQ:
		return cacheWriteTxn
	default:
		return cacheUncached
	}
}

// memSpec builds the memory-side table axes for a scheme: the Table 1
// directory states × the Table 4 meta states × the cache→memory messages.
func memSpec(scheme Scheme) protocol.Spec {
	return protocol.Spec{
		Name: scheme.String() + "/memory",
		States: []string{
			directory.ReadOnly.String(),
			directory.ReadWrite.String(),
			directory.ReadTransaction.String(),
			directory.WriteTransaction.String(),
		},
		Metas: []string{
			directory.Normal.String(),
			directory.TransInProgress.String(),
			directory.TrapOnWrite.String(),
			directory.TrapAlways.String(),
		},
		Msgs: msgDefs(RREQ, WREQ, REPM, UPDATE, ACKC, URREQ, UWREQ),
	}
}

// cacheSpec builds the cache-side table axes: the MSHR transaction state ×
// the memory→cache messages.
func cacheSpec(scheme Scheme) protocol.Spec {
	return protocol.Spec{
		Name:   scheme.String() + "/cache",
		States: []string{"Idle", "Read-Txn", "Write-Txn", "Uncached-Txn"},
		Msgs:   msgDefs(RDATA, WDATA, INV, BUSY, UDATA, UACK, CINV, UPDD, MODG),
	}
}

func msgDefs(types ...MsgType) []protocol.MsgDef {
	out := make([]protocol.MsgDef, len(types))
	for i, t := range types {
		out[i] = protocol.MsgDef{Val: uint8(t), Name: t.String()}
	}
	return out
}

// policy pairs one scheme's two transition tables.
type policy struct {
	mem   *protocol.Table[memCtx]
	cache *protocol.Table[cacheCtx]
}

var policies [protocol.NumSchemes]*policy

// registerPolicy installs a scheme's tables; each policy_*.go file calls
// it from init.
func registerPolicy(id Scheme, mem *protocol.Table[memCtx], cache *protocol.Table[cacheCtx]) {
	if policies[id] != nil {
		panic(fmt.Sprintf("coherence: scheme %v registered twice", id))
	}
	policies[id] = &policy{mem: mem, cache: cache}
}

func policyFor(id Scheme) *policy {
	if int(id) >= len(policies) {
		return nil
	}
	return policies[id]
}

// CheckTables runs the static exhaustiveness/unreachability checker over
// every registered scheme's memory and cache tables. An empty result is
// the proof that each (state, meta, message) triple is either handled by a
// row or explicitly declared impossible.
func CheckTables() []protocol.Problem {
	var probs []protocol.Problem
	for _, info := range protocol.Schemes() {
		p := policyFor(info.ID)
		if p == nil {
			probs = append(probs, protocol.Problem{
				Table: info.Name, Kind: "unregistered",
				Where: "-", Detail: "scheme has no policy module",
			})
			continue
		}
		probs = append(probs, p.mem.Check()...)
		probs = append(probs, p.cache.Check()...)
	}
	return probs
}

// SetTableCoverage enables or disables the per-row transition coverage
// counters on every registered table. The counters are atomic, so the
// toggle is safe while simulations run.
func SetTableCoverage(on bool) {
	for _, p := range policies {
		if p == nil {
			continue
		}
		p.mem.SetCoverage(on)
		p.cache.SetCoverage(on)
	}
}

// ResetTableCoverage zeroes every table's coverage counters.
func ResetTableCoverage() {
	for _, p := range policies {
		if p == nil {
			continue
		}
		p.mem.ResetCoverage()
		p.cache.ResetCoverage()
	}
}

// TableCoverage reports every registered row with its hit count, sorted by
// table then declaration order (tables are named "<scheme>/<side>").
func TableCoverage() []protocol.RowCoverage {
	var out []protocol.RowCoverage
	for _, p := range policies {
		if p == nil {
			continue
		}
		out = append(out, p.mem.Coverage()...)
		out = append(out, p.cache.Coverage()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// tableViolation reports a dispatch that no table row handled: either a
// triple the protocol declares impossible (reported with the declared
// reason) or — if the static checker were ever bypassed — a genuinely
// missing row. With a recorder installed the violation is recorded and the
// message dropped; without one it panics, because an unhandled transition
// in a deterministic fault-free run is a protocol bug.
func (mc *MemoryController) tableViolation(v protocol.Verdict, e *directory.Entry, src mesh.NodeID, m *Msg) {
	st, mt, mg := uint8(e.State), uint8(e.Meta), uint8(m.Type)
	tbl := policyFor(mc.params.Scheme).mem
	detail := "no table row handles this message"
	if v == protocol.VerdictImpossible {
		detail = "declared impossible: " + tbl.Reason(st, mt, mg)
	}
	if mc.rec != nil {
		mc.rec.Record(fault.Violation{
			Cycle: mc.eng.Now(),
			Node:  int(mc.id),
			Kind:  "memctrl-dispatch",
			State: tbl.Describe(st, mt, mg),
			Msg:   fmt.Sprintf("unexpected %v from %d (addr %#x): %s", m.Type, src, m.Addr, detail),
		})
		return
	}
	panic(fmt.Sprintf("coherence: node %d table %s row %s: unexpected %v from %d (addr %#x): %s",
		mc.id, tbl.Spec().Name, tbl.Describe(st, mt, mg), m.Type, src, m.Addr, detail))
}

// tableViolation is the cache-side twin of the memory controller's.
func (cc *CacheController) tableViolation(v protocol.Verdict, st uint8, src mesh.NodeID, m *Msg) {
	tbl := policyFor(cc.params.Scheme).cache
	mg := uint8(m.Type)
	detail := "no table row handles this message"
	if v == protocol.VerdictImpossible {
		detail = "declared impossible: " + tbl.Reason(st, 0, mg)
	}
	if cc.rec != nil {
		cc.rec.Record(fault.Violation{
			Cycle: cc.eng.Now(),
			Node:  int(cc.id),
			Kind:  "cachectrl-dispatch",
			State: tbl.Describe(st, protocol.Any, mg),
			Msg:   fmt.Sprintf("unexpected %v from %d (addr %#x): %s", m.Type, src, m.Addr, detail),
		})
		return
	}
	panic(fmt.Sprintf("coherence: node %d table %s row %s: unexpected %v from %d (addr %#x): %s",
		cc.id, tbl.Spec().Name, tbl.Describe(st, protocol.Any, mg), m.Type, src, m.Addr, detail))
}
