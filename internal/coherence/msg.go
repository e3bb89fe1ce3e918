// Package coherence implements the cache-coherence protocols the paper
// specifies and evaluates: the shared Figure-2 state machine with the
// Table-3 message vocabulary, parameterized by directory scheme — full-map
// (Censier-Feautrier style, Dir_NNB), limited (Dir_iNB, Agarwal et al.
// [8]), and LimitLESS_i with its Table-4 meta states and software trap
// hand-off. Software-only coherence (every request trapped, the paper's
// "migration path" limit) and a private-data-only scheme (an ASIM
// configuration) are included as baselines, and a chained (linked-list,
// SCI-style [9]) directory is provided for the Section-1 comparison of
// sequential-invalidation write latency.
//
// The package supplies two controller types that the machine package wires
// into each node: MemoryController (the directory side) and CacheController
// (the cache side). They exchange Msg values over the mesh network and,
// for LimitLESS, over the IPI interface to the node's processor.
package coherence

import (
	"fmt"

	"limitless/internal/directory"
	"limitless/internal/mesh"
)

// MsgType enumerates the protocol messages of Table 3, plus the uncached
// accesses used by the private-data-only baseline and the chained-protocol
// extensions.
type MsgType uint8

const (
	// Cache to memory (Table 3).

	// RREQ requests a read copy of a block.
	RREQ MsgType = iota
	// WREQ requests write permission for a block.
	WREQ
	// REPM replaces (writes back) a block held Read-Write. Carries data.
	REPM
	// UPDATE returns a dirty block in response to an invalidation. Carries data.
	UPDATE
	// ACKC acknowledges an invalidation of a clean (or absent) block.
	ACKC

	// Memory to cache (Table 3).

	// RDATA delivers a block with read permission. Carries data.
	RDATA
	// WDATA delivers a block with write permission. Carries data.
	WDATA
	// INV asks a cache to invalidate its copy of a block.
	INV
	// BUSY tells a requester the directory is mid-transaction; retry.
	BUSY

	// Uncached accesses (private-data-only baseline).

	// URREQ is an uncached read round trip; UDATA answers it.
	URREQ
	// UWREQ is an uncached write round trip; UACK answers it.
	UWREQ
	// UDATA answers URREQ with data. Carries data.
	UDATA
	// UACK acknowledges UWREQ.
	UACK

	// Chained-directory extensions (SCI-style linked list).

	// CINV is a chained invalidation that a cache forwards down its
	// next-pointer list; the tail acknowledges to memory with ACKC.
	CINV

	// UPDD delivers a new value to a cache holding a read copy of an
	// update-mode block (the Section 6 extension that updates rather than
	// invalidates cached copies). Carries data.
	UPDD

	// MODG is the modify-grant optimization of the paper's footnote 1:
	// when a write request comes from the block's only reader, ownership
	// is granted without resending the data the cache already holds.
	// Optional (Params.ModifyGrant); the paper's specification uses WDATA.
	MODG

	numMsgTypes
)

// NumMsgTypes is the number of distinct message types, for stats arrays.
const NumMsgTypes = int(numMsgTypes)

// ChainResupply in an RDATA's Next field tells a chained-scheme cache that
// this fill re-supplies data for a list position it already holds (its
// line was displaced but its next pointer survives), so it must not record
// a new position.
const ChainResupply mesh.NodeID = -2

func (t MsgType) String() string {
	switch t {
	case RREQ:
		return "RREQ"
	case WREQ:
		return "WREQ"
	case REPM:
		return "REPM"
	case UPDATE:
		return "UPDATE"
	case ACKC:
		return "ACKC"
	case RDATA:
		return "RDATA"
	case WDATA:
		return "WDATA"
	case INV:
		return "INV"
	case BUSY:
		return "BUSY"
	case URREQ:
		return "URREQ"
	case UWREQ:
		return "UWREQ"
	case UDATA:
		return "UDATA"
	case UACK:
		return "UACK"
	case CINV:
		return "CINV"
	case UPDD:
		return "UPDD"
	case MODG:
		return "MODG"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// HasData reports whether the message carries the block's data words
// (the "Data?" column of Table 3).
func (t MsgType) HasData() bool {
	switch t {
	case REPM, UPDATE, RDATA, WDATA, UDATA, UWREQ, UPDD:
		return true
	}
	return false
}

// ToMemory reports whether the message flows cache→memory (and is
// therefore dispatched to the destination's memory controller).
func (t MsgType) ToMemory() bool {
	switch t {
	case RREQ, WREQ, REPM, UPDATE, ACKC, URREQ, UWREQ:
		return true
	}
	return false
}

// Msg is one protocol message. Every message carries the block address so
// the receiver knows "which directory entry should be used when processing
// the message" (Section 3.2).
type Msg struct {
	Type MsgType
	Addr directory.Addr
	// Value carries block data for data-bearing messages.
	Value uint64
	// Next carries the previous list head for chained-directory RDATA and
	// the forwarding target for CINV. Negative means nil.
	Next mesh.NodeID
	// Evict marks an INV sent to reclaim a limited-directory pointer
	// rather than as part of a write transaction. The acknowledgment for
	// an eviction is absorbed without touching an AckCtr.
	Evict bool
	// Dup marks a message as a re-delivery injected by the fault plan (or
	// the idempotent echo a duplicate provoked). Controllers suppress
	// duplicates instead of running them through the protocol engine; the
	// flag is what lets them tell a re-delivery from the original.
	Dup bool
	// Pos numbers a chained-directory list position: on RDATA the position
	// the fill records, on CINV the position the walk reaches. Positions
	// count from the tail, 1 up to the list length, so a cache that holds
	// several positions can tell which one a walk is for.
	Pos int32
	// Modify, on an UWREQ, asks the home controller to apply an atomic
	// read-modify-write; the UACK then carries the old value. (The
	// simulator passes the closure in-process; a real machine would
	// encode a fetch-op opcode.)
	Modify func(old uint64) uint64
}

// MinMsgFlits is the length of the shortest protocol message (header +
// address operand; see Msg.Flits). The network's lookahead, the minimum
// latency its flush asserts on every delivery, is derived from the network
// latency of a packet this short.
const MinMsgFlits = 2

// BlockWords is the block size in words: the data a data-bearing message
// carries, one word per flit.
const BlockWords = 4

// Flits returns the packet length in flits for this message: one header
// word, one address operand, one extra operand for chained messages, and
// the block's BlockWords data words when present (Figure 4's uniform
// packet format).
func (m *Msg) Flits() int {
	n := 2 // header + address operand
	if m.Type == CINV || (m.Type == RDATA && m.Next >= 0) {
		n++
	}
	if m.Type.HasData() {
		n += BlockWords
	}
	return n
}

func (m *Msg) String() string {
	return fmt.Sprintf("%s addr=%#x val=%d", m.Type, m.Addr, m.Value)
}

// sendMsg injects a copy of m from src to dst through port p, in a payload
// the port hands back once the packet's last delivery returns: a run
// touches only as many messages as it has in flight.
func sendMsg(p *mesh.ShardPort, src, dst mesh.NodeID, m *Msg) {
	pm, ok := p.Spare().(*Msg)
	if !ok {
		pm = new(Msg)
	}
	*pm = *m
	p.SendFrom(src, dst, pm.Flits(), pm)
}
