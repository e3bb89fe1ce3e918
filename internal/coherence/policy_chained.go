package coherence

import (
	"limitless/internal/directory"
	"limitless/internal/mesh"
	"limitless/internal/protocol"
)

// Chained (SCI-style) directory: the sharing list lives in the caches as a
// linked list of next pointers; the directory entry holds only the list
// head and its length. Reads prepend to the list; a write walks it with a
// single CINV that the tail acknowledges.
func init() {
	rows := append(memCommonRows(),
		memRow{State: stRO, Meta: anyKey, Msg: uint8(RREQ), ID: "ro-rreq-chain", Action: memChainedRead,
			Doc: "reader becomes the new list head; RDATA carries the previous head as next pointer"},
		memRow{State: stRO, Meta: anyKey, Msg: uint8(WREQ), ID: "ro-wreq-grant", Guard: guardChainSoleSharer, Action: memWriteGrant,
			Doc: "transition 2: requester is the whole chain (or nothing is cached); grant ownership"},
		memRow{State: stRO, Meta: anyKey, Msg: uint8(WREQ), ID: "ro-wreq-walk", Action: memChainedWriteInvalidate,
			Doc: "transition 3, sequential: one CINV walks the list; the tail acknowledges"},
	)
	rows = append(rows, memReadWriteRows()...)
	rows = append(rows, memReadTxnRows(memChainedRTUpdate, memChainedRTAck)...)
	rows = append(rows, memWriteTxnRows()...)

	cacheRows := []cacheRow{
		{State: cacheReadTxn, Msg: uint8(RDATA), ID: "rdata-fill-chain", Action: cacheReadFillChained,
			Doc: "read miss completes: install read-only, record the next pointer, resume a parked walk"},
		{State: cacheWriteTxn, Msg: uint8(WDATA), ID: "wdata-fill-chain", Action: cacheWriteFillChained,
			Doc: "write miss completes: drop any list position, install read-write, apply the store"},
		{State: cacheReadTxn, Msg: uint8(BUSY), ID: "busy-retry-read-walk", Guard: guardWalkParked, Action: cacheBusyRetryWalk,
			Doc: "the refused read created no position: run the parked walk as it stands, then retry"},
		{State: cacheReadTxn, Msg: uint8(CINV), ID: "cinv-park-read", Guard: guardWalkAhead, Action: cacheChainParkWalk,
			Doc: "walk overtook the RDATA that records this cache's position: park it until the fill"},
		{State: anyKey, Msg: uint8(CINV), ID: "cinv-walk", Action: cacheChainWalk,
			Doc: "chained invalidation: consume one list position, forward or acknowledge at the tail"},
	}
	cacheRows = append(cacheRows, cacheCommonRows()...)

	registerPolicy(Chained,
		protocol.New(memSpec(Chained), rows, memCentralizedImpossible()),
		protocol.New(cacheSpec(Chained), cacheRows, cacheCommonImpossible()))
}

// guardChainSoleSharer is guardSoleSharer with the chained twist: the
// directory sees only the list head, so deeper readers exist whenever the
// chain is longer than one and the walk must run even if the head is the
// requester.
func guardChainSoleSharer(c *memCtx) bool {
	if c.e.Chain > 1 {
		return false
	}
	return guardSoleSharer(c)
}

// memChainedRead implements the linked-list read path (the new reader
// becomes the head and learns the previous head) and tracks the worker-set
// census by chain length.
func memChainedRead(c *memCtx) {
	c.mc.chainedRead(c.src, c.e, c.m.Addr)
	c.e.NoteSharers(c.e.Chain)
}

// memChainedWriteInvalidate is the sequential transition 3: one CINV walks
// the list starting at the head; the tail acknowledges. The requester's
// own copy (if on the list) is invalidated too and refreshed by the
// eventual WDATA.
func memChainedWriteInvalidate(c *memCtx) {
	mc, e := c.mc, c.e
	sh := c.sharerList()
	mc.stats.WriteTxns++
	e.State = directory.WriteTransaction
	head, pos := mesh.NodeID(sh[0]), int32(e.Chain)
	e.AckCtr = 1
	mc.clearSharers(e)
	e.Ptrs.Add(c.src)
	e.Chain = 0
	mc.Send(head, Msg{Type: CINV, Addr: c.m.Addr, Next: -1, Pos: pos})
}

// memChainedRTUpdate / memChainedRTAck complete a read transaction and
// restore the single-reader chain.
func memChainedRTUpdate(c *memCtx) {
	c.mc.finishReadTransaction(c.e, c.m.Addr, c.m.Value, true, true)
}

func memChainedRTAck(c *memCtx) {
	c.mc.finishReadTransaction(c.e, c.m.Addr, c.e.Value, false, true)
}
