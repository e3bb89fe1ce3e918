package coherence

import "limitless/internal/protocol"

// Limited directory (Dir_iNB): i hardware pointers, no broadcast. Pointer
// overflow on a read is resolved by evicting the oldest recorded copy
// (FIFO).
func init() {
	roRREQ := []memRow{
		{State: stRO, Meta: anyKey, Msg: uint8(RREQ), ID: "ro-rreq-grant", Guard: guardRORecordable, Action: memReadGrant,
			Doc: "transition 1: pointer array has room (or Local Bit escape), RDATA"},
		{State: stRO, Meta: anyKey, Msg: uint8(RREQ), ID: "ro-rreq-evict", Action: memReadEvict,
			Doc: "pointer overflow: evict a victim's copy (eviction INV), record the reader, RDATA"},
	}
	registerPolicy(LimitedNB,
		protocol.New(memSpec(LimitedNB), memCentralizedRows(roRREQ), memCentralizedImpossible()),
		centralizedCacheTable(LimitedNB))
}
