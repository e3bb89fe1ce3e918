package coherence

import (
	"limitless/internal/cache"
	"limitless/internal/directory"
	"limitless/internal/mesh"
	"limitless/internal/protocol"
)

// Cache-side guard and action vocabulary for the policy modules' cache
// transition tables. The table's state axis is the MSHR transaction state
// (cacheIdle/cacheReadTxn/cacheWriteTxn/cacheUncached), so the "is there a
// matching transaction of the right flavor" checks the old hand-coded
// dispatch performed are encoded in the row keys themselves.

// guardHasCopy accepts a modify grant when the read copy it relies on is
// still resident.
func guardHasCopy(c *cacheCtx) bool {
	_, ok := c.cc.cache.Read(c.m.Addr)
	return ok
}

// cacheReadFill installs the RDATA block read-only and completes the read
// transaction.
func cacheReadFill(c *cacheCtx) {
	c.cc.fill(c.m.Addr, cache.ReadOnly, c.m.Value)
	c.cc.finish(c.m.Addr, c.m.Value)
}

// cacheReadFillChained is cacheReadFill for the chained scheme: the RDATA
// also carries the previous list head, which this cache records as its
// next pointer (unless the fill merely re-supplies a position it already
// holds). A walk parked on the read resumes once the read completes, as if
// the CINV had arrived just after the RDATA.
func cacheReadFillChained(c *cacheCtx) {
	cc, m := c.cc, c.m
	parked := c.t.walkParked // finish recycles the transaction
	cc.fill(m.Addr, cache.ReadOnly, m.Value)
	if m.Next != ChainResupply {
		// Prepend the new list position; older (possibly zombie) positions
		// stay behind it in walk order.
		if cc.chainNext == nil {
			cc.chainNext = make(map[directory.Addr][]chainLink)
		}
		cc.chainNext[m.Addr] = append([]chainLink{{next: m.Next, pos: m.Pos}}, cc.chainNext[m.Addr]...)
	}
	cc.finish(m.Addr, m.Value)
	if parked {
		cc.chainWalk(m.Addr)
	}
}

// cacheWriteFill installs the WDATA block read-write, applies the waiting
// store (or atomic read-modify-write) and completes the transaction.
func cacheWriteFill(c *cacheCtx) {
	cc, m, t := c.cc, c.m, c.t
	cc.fill(m.Addr, cache.ReadWrite, m.Value)
	newVal, result := t.req.Value, t.req.Value
	if t.req.Modify != nil {
		// Atomic read-modify-write: old value in, new value stored, old
		// value returned — all within this event.
		newVal = t.req.Modify(m.Value)
		result = m.Value
	}
	if !cc.cache.Write(m.Addr, newVal) {
		panic("coherence: store missed immediately after WDATA fill")
	}
	cc.finish(m.Addr, result)
}

// cacheWriteFillChained additionally dissolves any list position this
// cache held: becoming owner ends its life as a chain link (an upgrade of
// a single-entry chain grants without a walk).
func cacheWriteFillChained(c *cacheCtx) {
	delete(c.cc.chainNext, c.m.Addr)
	cacheWriteFill(c)
}

// cacheModgUpgrade applies a modify grant to the still-resident read copy:
// ownership without a data transfer (the footnote 1 optimization).
func cacheModgUpgrade(c *cacheCtx) {
	cc, m, t := c.cc, c.m, c.t
	old, _ := cc.cache.Read(m.Addr)
	newVal, result := t.req.Value, t.req.Value
	if t.req.Modify != nil {
		newVal = t.req.Modify(old)
		result = old
	}
	cc.fill(m.Addr, cache.ReadWrite, old)
	if !cc.cache.Write(m.Addr, newVal) {
		panic("coherence: store missed immediately after MODG upgrade")
	}
	cc.finish(m.Addr, result)
}

// cacheModgRefetch handles a modify grant whose read copy was displaced
// while the upgrade was in flight: ask the directory (which now records us
// as owner) for the data.
func cacheModgRefetch(c *cacheCtx) {
	c.cc.stats.Retries++
	c.cc.send(HomeOf(c.m.Addr), c.t.msg)
}

// cacheInvalidate answers an INV: return the dirty data as UPDATE, or
// acknowledge with ACKC (echoing the eviction flag so the home absorbs the
// ack without counting it).
func cacheInvalidate(c *cacheCtx) {
	cc, m := c.cc, c.m
	value, dirty, present := cc.cache.Invalidate(m.Addr)
	delete(cc.chainNext, m.Addr)
	if present && dirty {
		cc.send(c.src, Msg{Type: UPDATE, Addr: m.Addr, Value: value, Next: -1})
		return
	}
	cc.send(c.src, Msg{Type: ACKC, Addr: m.Addr, Next: -1, Evict: m.Evict})
}

// cacheBusyRetry re-sends the transaction's request after the bounded
// exponential backoff.
func cacheBusyRetry(c *cacheCtx) {
	cc, t := c.cc, c.t
	cc.stats.Retries++
	t.retries++
	// The transaction could complete before the retry fires only if a
	// response overtook the BUSY; with in-order delivery it cannot, so the
	// entry is still live when sendH runs.
	backoff := RetryBackoff
	if max := cc.params.Timing.RetryBackoffMax; max > 0 {
		for i := 1; i < t.retries && backoff < max; i++ {
			backoff <<= 1
		}
		if backoff > max {
			backoff = max
		}
	}
	cc.eng.AfterHandler(backoff, &cc.sendH, t)
}

// cacheChainWalk services a chained invalidation: invalidate the copy,
// consume one recorded list position and forward the CINV to its next
// pointer — or, at the tail, acknowledge to the home.
func cacheChainWalk(c *cacheCtx) { c.cc.chainWalk(c.m.Addr) }

// cacheChainParkWalk holds a CINV that reached a cache with a read of the
// block outstanding, for a position newer than any the cache records. The
// walk has reached the position the read's RDATA will record: the home
// added this cache to the list and sent the RDATA, a later reader's RDATA
// made it the next pointer of a new head, and the walk from that head
// overtook the first RDATA (a lost or delayed packet). Walking on with a
// recorded position would end the walk early at this cache, or forward it
// past the nodes between the two positions, and leave their copies stale;
// so the RDATA resumes it after the fill.
func cacheChainParkWalk(c *cacheCtx) { c.t.walkParked = true }

// guardWalkAhead accepts a CINV for a list position newer than any this
// cache records for the block.
func guardWalkAhead(c *cacheCtx) bool {
	stack := c.cc.chainNext[c.m.Addr]
	return len(stack) == 0 || c.m.Pos > stack[0].pos
}

// guardWalkParked accepts when a chained walk is parked on the read.
func guardWalkParked(c *cacheCtx) bool { return c.t.walkParked }

// cacheBusyRetryWalk runs the walk parked on a refused read, then retries
// the read. A refused read created no position, so the walk cannot wait
// for one; it goes on as an unparked walk would, and the home never stays
// stuck in the write transaction behind it.
func cacheBusyRetryWalk(c *cacheCtx) {
	c.t.walkParked = false
	c.cc.chainWalk(c.m.Addr)
	cacheBusyRetry(c)
}

// cacheUncachedData completes an uncached read with the UDATA value.
func cacheUncachedData(c *cacheCtx) { c.cc.finish(c.m.Addr, c.m.Value) }

// cacheUncachedAck completes an uncached write. For a fetch-and-op the
// UACK carries the old value (any local read copy was refreshed by the
// UPDD that preceded it).
func cacheUncachedAck(c *cacheCtx) {
	t := c.t
	result := t.req.Value
	if t.req.Modify != nil {
		result = c.m.Value
	}
	c.cc.finish(c.m.Addr, result)
}

// cacheUpdateData applies update-mode propagation: overwrite the read copy
// in place. No acknowledgment — update mode is delivered weakly ordered,
// as Section 6 extensions run under the software handler's control.
func cacheUpdateData(c *cacheCtx) { c.cc.cache.Update(c.m.Addr, c.m.Value) }

type cacheRow = protocol.Row[cacheCtx]

// cacheCommonRows is the cache-side protocol shared by every scheme:
// everything except the data-fill rows, which the chained scheme replaces
// with list-aware variants.
func cacheCommonRows() []cacheRow {
	return []cacheRow{
		{State: cacheWriteTxn, Msg: uint8(MODG), ID: "modg-upgrade", Guard: guardHasCopy, Action: cacheModgUpgrade,
			Doc: "modify grant applied to the resident read copy: ownership without data"},
		{State: cacheWriteTxn, Msg: uint8(MODG), ID: "modg-refetch", Action: cacheModgRefetch,
			Doc: "modify grant raced an eviction: re-request the data from the home"},
		{State: anyKey, Msg: uint8(INV), ID: "inv-reply", Action: cacheInvalidate,
			Doc: "invalidate the copy; UPDATE if dirty, else ACKC (echoing the eviction flag)"},
		{State: cacheReadTxn, Msg: uint8(BUSY), ID: "busy-retry-read", Action: cacheBusyRetry,
			Doc: "home is mid-transaction: re-send the read request after backoff"},
		{State: cacheWriteTxn, Msg: uint8(BUSY), ID: "busy-retry-write", Action: cacheBusyRetry,
			Doc: "home is mid-transaction: re-send the write request after backoff"},
		{State: cacheUncached, Msg: uint8(BUSY), ID: "busy-retry-uncached", Action: cacheBusyRetry,
			Doc: "home is mid-transaction: re-send the uncached round trip after backoff"},
		{State: cacheUncached, Msg: uint8(UDATA), ID: "udata-finish", Action: cacheUncachedData,
			Doc: "uncached read completes with the returned value"},
		{State: cacheUncached, Msg: uint8(UACK), ID: "uack-finish", Action: cacheUncachedAck,
			Doc: "uncached write completes; fetch-and-op results carry the old value"},
		{State: anyKey, Msg: uint8(UPDD), ID: "updd-refresh", Action: cacheUpdateData,
			Doc: "update-mode propagation: refresh the read copy in place"},
	}
}

// cacheCommonImpossible declares the cache-side triples in-order delivery
// rules out for every scheme: data replies and transaction-completing
// messages without a matching outstanding transaction.
func cacheCommonImpossible() []protocol.Impossible {
	return []protocol.Impossible{
		{State: anyKey, Msg: uint8(RDATA), Reason: "read data without an outstanding read transaction"},
		{State: anyKey, Msg: uint8(WDATA), Reason: "write data without an outstanding write transaction"},
		{State: anyKey, Msg: uint8(MODG), Reason: "modify grant without an outstanding write transaction"},
		{State: anyKey, Msg: uint8(BUSY), Reason: "BUSY without an outstanding request to retry"},
		{State: anyKey, Msg: uint8(UDATA), Reason: "uncached data without an outstanding uncached read"},
		{State: anyKey, Msg: uint8(UACK), Reason: "uncached ack without an outstanding uncached write"},
	}
}

// centralizedCacheTable builds the cache table every non-chained scheme
// shares.
func centralizedCacheTable(scheme Scheme) *protocol.Table[cacheCtx] {
	rows := []cacheRow{
		{State: cacheReadTxn, Msg: uint8(RDATA), ID: "rdata-fill", Action: cacheReadFill,
			Doc: "read miss completes: install the block read-only"},
		{State: cacheWriteTxn, Msg: uint8(WDATA), ID: "wdata-fill", Action: cacheWriteFill,
			Doc: "write miss completes: install read-write and apply the store"},
	}
	rows = append(rows, cacheCommonRows()...)
	imposs := append(cacheCommonImpossible(),
		protocol.Impossible{State: anyKey, Msg: uint8(CINV), Reason: "chained walk messages do not exist outside the chained scheme"},
	)
	return protocol.New(cacheSpec(scheme), rows, imposs)
}

// chainLink is one list position a chained-scheme cache occupies: its
// number (Msg.Pos) and its next pointer, negative at the tail.
type chainLink struct {
	next mesh.NodeID
	pos  int32
}

// chainWalk invalidates the copy of addr, consumes this cache's most recent
// list position and forwards the CINV to its next pointer — or, at the
// tail, acknowledges to the home.
func (cc *CacheController) chainWalk(addr directory.Addr) {
	cc.cache.Invalidate(addr)
	stack := cc.chainNext[addr]
	if len(stack) == 0 {
		// Defensive: a walk reached a cache with no recorded position.
		cc.send(HomeOf(addr), Msg{Type: ACKC, Addr: addr, Next: -1})
		return
	}
	link := stack[0]
	if len(stack) == 1 {
		delete(cc.chainNext, addr)
	} else {
		cc.chainNext[addr] = stack[1:]
	}
	if link.next >= 0 {
		cc.send(link.next, Msg{Type: CINV, Addr: addr, Next: -1, Pos: link.pos - 1})
		return
	}
	// Tail of the list: acknowledge to the home.
	cc.send(HomeOf(addr), Msg{Type: ACKC, Addr: addr, Next: -1})
}
