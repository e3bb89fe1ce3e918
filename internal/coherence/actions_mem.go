package coherence

import (
	"limitless/internal/directory"
	"limitless/internal/mesh"
	"limitless/internal/protocol"
)

// Memory-side guard and action vocabulary: the reusable building blocks
// the per-scheme policy modules assemble into transition-table rows. Each
// action is the body of one Table 2 / Table 4 transition, lifted verbatim
// from the former hand-coded state machine so cycle counts stay
// bit-identical.

// --- guards ---

// guardEvictAck accepts acknowledgments of eviction invalidations, which
// are absorbed without touching transaction state whatever the entry is
// doing.
func guardEvictAck(c *memCtx) bool { return c.m.Evict }

// guardRORecordable accepts a read request the hardware pointer array can
// record: the requester is already present, there is room, or the home
// node's Local Bit escape applies (Section 4.3: "local read requests will
// never overflow a directory"). It mirrors addSharer's decision without
// mutating.
func guardRORecordable(c *memCtx) bool {
	e, src := c.e, c.src
	if e.Local && src == c.mc.id {
		return true
	}
	if e.Ptrs.Contains(src) {
		return true
	}
	if cap := e.Ptrs.Cap(); cap < 0 || e.Ptrs.Len() < cap {
		return true
	}
	return src == c.mc.id
}

// guardSoleSharer accepts a write request from a processor that is the
// block's only recorded sharer (or when nothing is cached): the
// invalidation-free Transition 2.
func guardSoleSharer(c *memCtx) bool {
	for _, n := range c.sharerList() {
		if mesh.NodeID(n) != c.src {
			return false
		}
	}
	return true
}

// guardOwnerMalformed accepts when a Read-Write (or transaction) entry
// does not hold exactly one pointer — a corrupt shape no transition can
// dispatch against.
func guardOwnerMalformed(c *memCtx) bool {
	n := c.e.Ptrs.Len()
	if c.e.Local {
		n++
	}
	return n != 1
}

// guardFromOwner accepts messages from the recorded owner. Valid only
// after guardOwnerMalformed rows have excluded every other pointer shape.
func guardFromOwner(c *memCtx) bool { return c.src == c.ownerNode() }

// guardNotFromOwner is guardFromOwner's complement.
func guardNotFromOwner(c *memCtx) bool { return c.src != c.ownerNode() }

// guardAckUnderflow accepts transaction-completing messages that arrive
// with no acknowledgment outstanding — a protocol violation.
func guardAckUnderflow(c *memCtx) bool { return c.e.AckCtr <= 0 }

// --- meta-state and uncached plumbing (Table 4 / Section 4.3) ---

// memBusy bounces a request with BUSY; the requester retries.
func memBusy(c *memCtx) {
	c.mc.stats.Busies++
	c.mc.Send(c.src, Msg{Type: BUSY, Addr: c.m.Addr, Next: -1})
}

// memDefer queues a non-retriable packet behind the Trans-In-Progress
// interlock until the software handler releases the block.
func memDefer(c *memCtx) {
	mc := c.mc
	mc.stats.Deferred++
	q := mc.deferred[c.m.Addr]
	if q == nil {
		if n := len(mc.deferFree); n > 0 {
			q = mc.deferFree[n-1]
			mc.deferFree[n-1] = nil
			mc.deferFree = mc.deferFree[:n-1]
		}
	}
	if mc.deferred == nil {
		mc.deferred = make(map[directory.Addr][]deferredPkt)
	}
	mc.deferred[c.m.Addr] = append(q, deferredPkt{c.src, *c.m})
}

// memTrap hands the packet to the software handler through the IPI queue
// (Section 4.2-4.3).
func memTrap(c *memCtx) { c.mc.forwardToSoftware(c.src, c.m, c.e) }

// memUncachedRead answers an uncached read round trip.
func memUncachedRead(c *memCtx) {
	c.mc.Send(c.src, Msg{Type: UDATA, Addr: c.m.Addr, Value: c.e.Value, Next: -1})
}

// memUncachedWrite applies an uncached write (or atomic read-modify-write)
// and acknowledges with the old value.
func memUncachedWrite(c *memCtx) {
	e, m := c.e, c.m
	old := e.Value
	if m.Modify != nil {
		e.Value = m.Modify(old)
	} else {
		e.Value = m.Value
	}
	c.mc.Send(c.src, Msg{Type: UACK, Addr: m.Addr, Value: old, Next: -1})
}

// --- Read-Only transitions (Table 2, transitions 1-3) ---

// memReadGrant records the reader and sends the data: Transition 1,
// P = P ∪ {i}, RDATA → i. Rows using it must guarantee capacity (an
// unconditional row for full-map storage, guardRORecordable otherwise).
func memReadGrant(c *memCtx) {
	mc, e := c.mc, c.e
	mc.addSharer(e, c.src)
	e.NoteSharers(e.Sharers())
	mc.Send(c.src, Msg{Type: RDATA, Addr: c.m.Addr, Value: e.Value, Next: -1})
}

// memReadEvict handles pointer overflow the Dir_iNB way: evict the oldest
// recorded copy (FIFO), record the new reader, grant.
func memReadEvict(c *memCtx) {
	mc, e := c.mc, c.e
	mc.stats.PointerOverflows++
	victim := e.Ptrs.Oldest()
	e.Ptrs.Remove(victim)
	e.Ptrs.Add(c.src)
	mc.stats.Evictions++
	mc.Send(victim, Msg{Type: INV, Addr: c.m.Addr, Next: -1, Evict: true})
	mc.Send(c.src, Msg{Type: RDATA, Addr: c.m.Addr, Value: e.Value, Next: -1})
}

// memReadOverflowTrap handles pointer overflow the LimitLESS way: count it
// and trap to the software directory handler.
func memReadOverflowTrap(c *memCtx) {
	c.mc.stats.PointerOverflows++
	c.mc.forwardToSoftware(c.src, c.m, c.e)
}

// memWriteGrant is Transition 2: the requester is the sole sharer (or
// nothing is cached); grant ownership immediately. With the modify-grant
// optimization a requester that already holds a read copy gets a dataless
// MODG.
func memWriteGrant(c *memCtx) {
	mc, e := c.mc, c.e
	hadCopy := len(c.sharerList()) > 0
	mc.clearSharers(e)
	e.Ptrs.Add(c.src)
	e.State = directory.ReadWrite
	e.Chain = 0
	if mc.params.ModifyGrant && hadCopy {
		mc.Send(c.src, Msg{Type: MODG, Addr: c.m.Addr, Next: -1})
		return
	}
	mc.Send(c.src, Msg{Type: WDATA, Addr: c.m.Addr, Value: e.Value, Next: -1})
}

// memWriteInvalidate is Transition 3: invalidate every other copy, await
// the acknowledgments, then grant.
func memWriteInvalidate(c *memCtx) {
	mc, e := c.mc, c.e
	sh := c.sharerList()
	mc.stats.WriteTxns++
	e.State = directory.WriteTransaction
	n := 0
	for _, k := range sh {
		if mesh.NodeID(k) != c.src {
			mc.Send(mesh.NodeID(k), Msg{Type: INV, Addr: c.m.Addr, Next: -1})
			n++
		}
	}
	e.AckCtr = n
	mc.clearSharers(e)
	e.Ptrs.Add(c.src)
}

// --- Read-Write transitions (Table 2, transitions 4-6) ---

// memOwnerViolation reports the malformed pointer set guardOwnerMalformed
// detected (recorded, or a panic without a recorder) and drops the
// message.
func memOwnerViolation(c *memCtx) { c.mc.owner(c.e) }

// memStartReadTxn is Transition 5: invalidate the owner, enter
// Read-Transaction with the reader as the sole pointer, await UPDATE.
func memStartReadTxn(c *memCtx) {
	mc, e := c.mc, c.e
	owner := c.ownerNode()
	mc.stats.ReadTxns++
	e.State = directory.ReadTransaction
	mc.clearSharers(e)
	e.Ptrs.Add(c.src)
	mc.Send(owner, Msg{Type: INV, Addr: c.m.Addr, Next: -1})
}

// memOwnerRegrant recovers from a lost modify grant: the owner's read copy
// was displaced while its upgrade was in flight, so it never received
// data. Memory still holds the current value.
func memOwnerRegrant(c *memCtx) {
	c.mc.Send(c.src, Msg{Type: WDATA, Addr: c.m.Addr, Value: c.e.Value, Next: -1})
}

// memStartWriteTxn is Transition 4: invalidate the owner, enter
// Write-Transaction with the writer as the sole pointer, await
// UPDATE/ACKC.
func memStartWriteTxn(c *memCtx) {
	mc, e := c.mc, c.e
	owner := c.ownerNode()
	mc.stats.WriteTxns++
	e.State = directory.WriteTransaction
	e.AckCtr = 1
	mc.clearSharers(e)
	e.Ptrs.Add(c.src)
	mc.Send(owner, Msg{Type: INV, Addr: c.m.Addr, Next: -1})
}

// memWriteback is Transition 6: the owner writes the block back; the entry
// becomes uncached Read-Only.
func memWriteback(c *memCtx) {
	e := c.e
	e.Value = c.m.Value
	c.mc.clearSharers(e)
	e.State = directory.ReadOnly
	e.Chain = 0
}

// --- transaction states (Table 2, transitions 7-10) ---

// memAbsorbData captures a REPM that crossed our invalidation: keep the
// data, keep waiting for the acknowledgment.
func memAbsorbData(c *memCtx) { c.e.Value = c.m.Value }

// memRTUpdate is Transition 10: the owner's data arrives; answer the
// waiting reader.
func memRTUpdate(c *memCtx) {
	c.mc.finishReadTransaction(c.e, c.m.Addr, c.m.Value, true, false)
}

// memRTAck completes a read transaction whose owner acknowledged without
// data: its dirty copy left via a REPM absorbed earlier (in-order delivery
// guarantees the REPM arrived first), so memory already holds the freshest
// value.
func memRTAck(c *memCtx) {
	c.mc.finishReadTransaction(c.e, c.m.Addr, c.e.Value, false, false)
}

// memWTAck is Transition 7/8's acknowledgment counting.
func memWTAck(c *memCtx) {
	c.e.AckCtr--
	if c.e.AckCtr == 0 {
		c.mc.finishWriteTransaction(c.e, c.m.Addr)
	}
}

// memWTUpdate is Transition 8: the owner returned its dirty data in
// response to the invalidation; counts as the acknowledgment.
func memWTUpdate(c *memCtx) {
	c.e.Value = c.m.Value
	c.e.AckCtr--
	if c.e.AckCtr == 0 {
		c.mc.finishWriteTransaction(c.e, c.m.Addr)
	}
}

// The memBug* actions report explicitly-modelled protocol violations (the
// rows the old code expressed as protocolBug calls).

// memBugOwnerRREQ reports an owner re-reading before its REPM arrived.
func memBugOwnerRREQ(c *memCtx) { c.mc.protocolBug("Read-Write(owner-RREQ)", c.src, c.m) }

// memBugForeignREPM reports a writeback from a non-owner.
func memBugForeignREPM(c *memCtx) { c.mc.protocolBug("Read-Write(foreign-REPM)", c.src, c.m) }

// memBugAckUnderflow reports an ACKC with no invalidation outstanding.
func memBugAckUnderflow(c *memCtx) { c.mc.protocolBug("Write-Transaction(ack-underflow)", c.src, c.m) }

// memBugUpdateUnderflow reports an UPDATE with no invalidation outstanding.
func memBugUpdateUnderflow(c *memCtx) {
	c.mc.protocolBug("Write-Transaction(update-underflow)", c.src, c.m)
}

// --- row assembly helpers shared by the policy modules ---

const (
	stRO = uint8(directory.ReadOnly)
	stRW = uint8(directory.ReadWrite)
	stRT = uint8(directory.ReadTransaction)
	stWT = uint8(directory.WriteTransaction)

	mtNormal = uint8(directory.Normal)
	mtTIP    = uint8(directory.TransInProgress)
	mtTrapW  = uint8(directory.TrapOnWrite)
	mtTrapA  = uint8(directory.TrapAlways)

	anyKey = protocol.Any
)

type memRow = protocol.Row[memCtx]

// memCommonRows is the scheme-independent prefix of every memory table:
// eviction-acknowledgment absorption, the Table 4 meta-state filter and
// the uncached round trips. Row order is semantics: the evict-ACKC absorb
// must precede the interlock (a stale eviction ack must never be
// deferred), the meta filter must precede the hardware rows, and the
// uncached rows sit between them (Trap-Always captures uncached requests,
// Trap-On-Write traps only the write-flavored UWREQ).
func memCommonRows() []memRow {
	return []memRow{
		{State: anyKey, Meta: anyKey, Msg: uint8(ACKC), ID: "evict-ack-absorb", Guard: guardEvictAck,
			Doc: "acknowledgment of an eviction INV: absorbed without touching transaction state"},

		{State: anyKey, Meta: mtTIP, Msg: uint8(RREQ), ID: "interlock-busy-rreq", Action: memBusy,
			Doc: "Trans-In-Progress: read request bounces with BUSY"},
		{State: anyKey, Meta: mtTIP, Msg: uint8(WREQ), ID: "interlock-busy-wreq", Action: memBusy,
			Doc: "Trans-In-Progress: write request bounces with BUSY"},
		{State: anyKey, Meta: mtTIP, Msg: uint8(URREQ), ID: "interlock-busy-urreq", Action: memBusy,
			Doc: "Trans-In-Progress: uncached read bounces with BUSY"},
		{State: anyKey, Meta: mtTIP, Msg: uint8(UWREQ), ID: "interlock-busy-uwreq", Action: memBusy,
			Doc: "Trans-In-Progress: uncached write bounces with BUSY"},
		{State: anyKey, Meta: mtTIP, Msg: uint8(REPM), ID: "interlock-defer-repm", Action: memDefer,
			Doc: "Trans-In-Progress: non-retriable writeback deferred until release"},
		{State: anyKey, Meta: mtTIP, Msg: uint8(UPDATE), ID: "interlock-defer-update", Action: memDefer,
			Doc: "Trans-In-Progress: non-retriable data return deferred until release"},
		{State: anyKey, Meta: mtTIP, Msg: uint8(ACKC), ID: "interlock-defer-ackc", Action: memDefer,
			Doc: "Trans-In-Progress: non-retriable acknowledgment deferred until release"},

		{State: anyKey, Meta: mtTrapA, Msg: anyKey, ID: "trap-always-forward", Action: memTrap,
			Doc: "Trap-Always: every protocol packet goes to the software handler"},

		{State: anyKey, Meta: mtTrapW, Msg: uint8(WREQ), ID: "trap-on-write-wreq", Action: memTrap,
			Doc: "Trap-On-Write: write request forwarded to software"},
		{State: anyKey, Meta: mtTrapW, Msg: uint8(UPDATE), ID: "trap-on-write-update", Action: memTrap,
			Doc: "Trap-On-Write: data return forwarded to software"},
		{State: anyKey, Meta: mtTrapW, Msg: uint8(REPM), ID: "trap-on-write-repm", Action: memTrap,
			Doc: "Trap-On-Write: writeback forwarded to software"},
		{State: anyKey, Meta: mtTrapW, Msg: uint8(UWREQ), ID: "trap-on-write-uwreq", Action: memTrap,
			Doc: "Trap-On-Write: uncached write forwarded to software"},

		{State: anyKey, Meta: anyKey, Msg: uint8(URREQ), ID: "uncached-read", Action: memUncachedRead,
			Doc: "uncached read round trip: UDATA reply, directory untouched"},
		{State: anyKey, Meta: anyKey, Msg: uint8(UWREQ), ID: "uncached-write", Action: memUncachedWrite,
			Doc: "uncached write (or fetch-and-op) applied in memory, UACK reply"},
	}
}

// memCentralizedRows is the Figure 2 state machine shared by every
// centralized-directory scheme; roRREQ supplies the scheme-specific
// Read-Only read path (where the schemes differ: overflow behavior).
func memCentralizedRows(roRREQ []memRow) []memRow {
	rows := append(memCommonRows(), roRREQ...)
	rows = append(rows,
		memRow{State: stRO, Meta: anyKey, Msg: uint8(WREQ), ID: "ro-wreq-grant", Guard: guardSoleSharer, Action: memWriteGrant,
			Doc: "transition 2: requester is sole sharer; grant ownership (WDATA or MODG)"},
		memRow{State: stRO, Meta: anyKey, Msg: uint8(WREQ), ID: "ro-wreq-invalidate", Action: memWriteInvalidate,
			Doc: "transition 3: invalidate all other copies, enter Write-Transaction"},
	)
	rows = append(rows, memReadWriteRows()...)
	rows = append(rows, memReadTxnRows(memRTUpdate, memRTAck)...)
	return append(rows, memWriteTxnRows()...)
}

// memReadWriteRows is the Read-Write state (transitions 4-6), identical
// for every scheme.
func memReadWriteRows() []memRow {
	return []memRow{
		{State: stRW, Meta: anyKey, Msg: anyKey, ID: "rw-bad-owner", Guard: guardOwnerMalformed, Action: memOwnerViolation,
			Doc: "corrupt entry: Read-Write without exactly one pointer; record violation, drop"},
		{State: stRW, Meta: anyKey, Msg: uint8(RREQ), ID: "rw-rreq-owner", Guard: guardFromOwner, Action: memBugOwnerRREQ,
			Doc: "owner re-reading before its REPM arrived: unreachable under in-order delivery"},
		{State: stRW, Meta: anyKey, Msg: uint8(RREQ), ID: "rw-rreq", Action: memStartReadTxn,
			Doc: "transition 5: INV to owner, enter Read-Transaction, await UPDATE"},
		{State: stRW, Meta: anyKey, Msg: uint8(WREQ), ID: "rw-wreq-owner", Guard: guardFromOwner, Action: memOwnerRegrant,
			Doc: "lost-modify-grant recovery: re-send WDATA to the recorded owner"},
		{State: stRW, Meta: anyKey, Msg: uint8(WREQ), ID: "rw-wreq", Action: memStartWriteTxn,
			Doc: "transition 4: INV to owner, enter Write-Transaction, await UPDATE/ACKC"},
		{State: stRW, Meta: anyKey, Msg: uint8(REPM), ID: "rw-repm-foreign", Guard: guardNotFromOwner, Action: memBugForeignREPM,
			Doc: "writeback from a non-owner: protocol violation"},
		{State: stRW, Meta: anyKey, Msg: uint8(REPM), ID: "rw-repm", Action: memWriteback,
			Doc: "transition 6: owner writes back; entry becomes uncached Read-Only"},
	}
}

// memReadTxnRows is the Read-Transaction state (transitions 9-10). The
// completing actions are parameters because the chained scheme restores
// its list length when the transaction ends.
func memReadTxnRows(rtUpdate, rtAck func(*memCtx)) []memRow {
	return []memRow{
		{State: stRT, Meta: anyKey, Msg: uint8(RREQ), ID: "rt-rreq-busy", Action: memBusy,
			Doc: "transition 9: request during read transaction bounces with BUSY"},
		{State: stRT, Meta: anyKey, Msg: uint8(WREQ), ID: "rt-wreq-busy", Action: memBusy,
			Doc: "transition 9: request during read transaction bounces with BUSY"},
		{State: stRT, Meta: anyKey, Msg: uint8(REPM), ID: "rt-repm-absorb", Action: memAbsorbData,
			Doc: "owner's eviction crossed our INV: absorb data, keep waiting for the ack"},
		{State: stRT, Meta: anyKey, Msg: uint8(UPDATE), ID: "rt-update", Action: rtUpdate,
			Doc: "transition 10: data arrives; answer the waiting reader with RDATA"},
		{State: stRT, Meta: anyKey, Msg: uint8(ACKC), ID: "rt-ackc", Action: rtAck,
			Doc: "dataless ack: the absorbed REPM already refreshed memory; answer the reader"},
	}
}

// memWriteTxnRows is the Write-Transaction state (transitions 7-8),
// identical for every scheme.
func memWriteTxnRows() []memRow {
	return []memRow{
		{State: stWT, Meta: anyKey, Msg: uint8(RREQ), ID: "wt-rreq-busy", Action: memBusy,
			Doc: "transition 7: request during write transaction bounces with BUSY"},
		{State: stWT, Meta: anyKey, Msg: uint8(WREQ), ID: "wt-wreq-busy", Action: memBusy,
			Doc: "transition 7: request during write transaction bounces with BUSY"},
		{State: stWT, Meta: anyKey, Msg: uint8(REPM), ID: "wt-repm-absorb", Action: memAbsorbData,
			Doc: "previous owner's eviction crossed our INV: absorb data, await the ack"},
		{State: stWT, Meta: anyKey, Msg: uint8(ACKC), ID: "wt-ackc-underflow", Guard: guardAckUnderflow, Action: memBugAckUnderflow,
			Doc: "acknowledgment with no invalidation outstanding: protocol violation"},
		{State: stWT, Meta: anyKey, Msg: uint8(ACKC), ID: "wt-ackc", Action: memWTAck,
			Doc: "transition 7/8: count the acknowledgment; last one grants WDATA"},
		{State: stWT, Meta: anyKey, Msg: uint8(UPDATE), ID: "wt-update-underflow", Guard: guardAckUnderflow, Action: memBugUpdateUnderflow,
			Doc: "data return with no invalidation outstanding: protocol violation"},
		{State: stWT, Meta: anyKey, Msg: uint8(UPDATE), ID: "wt-update", Action: memWTUpdate,
			Doc: "transition 8: dirty data returns, counts as the acknowledgment"},
	}
}

// memCentralizedImpossible declares the triples in-order point-to-point
// delivery makes unreachable for the centralized schemes. The meta-state
// filter (unconditional) handles these messages under Trans-In-Progress,
// Trap-Always and (for the write-flavored ones) Trap-On-Write, so each
// declaration is live exactly in the remaining meta states.
func memCentralizedImpossible() []protocol.Impossible {
	return []protocol.Impossible{
		{State: stRO, Meta: anyKey, Msg: uint8(REPM), Reason: "a Read-Only entry has no owner to write a dirty block back"},
		{State: stRO, Meta: anyKey, Msg: uint8(UPDATE), Reason: "no invalidation is outstanding for a Read-Only entry"},
		{State: stRO, Meta: anyKey, Msg: uint8(ACKC), Reason: "a non-eviction ACKC has no transaction to count against"},
		{State: stRW, Meta: anyKey, Msg: uint8(UPDATE), Reason: "no invalidation is outstanding for a Read-Write entry"},
		{State: stRW, Meta: anyKey, Msg: uint8(ACKC), Reason: "no invalidation is outstanding for a Read-Write entry"},
	}
}
