package coherence

import (
	"limitless/internal/protocol"
	"limitless/internal/sim"
)

// Scheme selects the directory organization — the independent variable of
// every experiment in the paper. It is the protocol registry's scheme
// identifier; the registry (internal/protocol) is the single definition of
// the schemes, their names and their configuration requirements.
type Scheme = protocol.SchemeID

const (
	// FullMap is the Censier-Feautrier full-map directory.
	FullMap = protocol.FullMap
	// LimitedNB is Dir_iNB: overflow evicts a previously cached copy.
	LimitedNB = protocol.LimitedNB
	// LimitLESS traps pointer overflow to a software handler.
	LimitLESS = protocol.LimitLESS
	// SoftwareOnly handles every protocol packet in software.
	SoftwareOnly = protocol.SoftwareOnly
	// PrivateOnly caches only private data; shared references go uncached.
	PrivateOnly = protocol.PrivateOnly
	// Chained links the sharing list through the caches (SCI-style).
	Chained = protocol.Chained
)

// The fixed latencies of the machine model, in processor cycles. They are
// facts of Alewife, not experiment variables: the paper varies only the
// scheme, the pointer count and T_s. Together with the mesh's constants
// they reproduce the paper's T_h ≈ 35-cycle average remote access latency
// on a 64-node machine.
const (
	// CacheHit is the time for a load/store satisfied locally.
	CacheHit sim.Time = 1
	// CtrlOccupancy is the controller's per-message processing time
	// (directory lookup and state update).
	CtrlOccupancy sim.Time = 2
	// MemAccess is the additional time to read or write the block in DRAM
	// for data-bearing replies.
	MemAccess sim.Time = 5
	// RetryBackoff is how long a cache waits after a BUSY before
	// re-sending its request: fixed, as in the paper's model, unless
	// Timing.RetryBackoffMax makes it escalate.
	RetryBackoff sim.Time = 16
	// TrapEntry is the time from controller interrupt to the first
	// instruction of the trap handler (5–10 cycles on SPARCLE, Section 4.1).
	TrapEntry sim.Time = 7
	// ContextSwitch is the block-multithreading switch time (11 cycles on
	// SPARCLE, Section 4.1).
	ContextSwitch sim.Time = 11
)

// Timing holds the latencies a configuration may vary.
type Timing struct {
	// TrapService is T_s: the full-map-emulation latency per trapped
	// packet (the paper sweeps 25–150; Alewife's estimate is 50–100).
	TrapService sim.Time
	// RetryBackoffMax, when positive, makes the BUSY backoff escalate: the
	// wait doubles with each consecutive BUSY on the same transaction, up
	// to this cap. Zero keeps the fixed RetryBackoff (the paper's model).
	// Fault-injected stall windows turn fixed-interval retries into BUSY
	// storms; bounded exponential backoff keeps them from saturating the
	// home controller while still guaranteeing deterministic retry times.
	RetryBackoffMax sim.Time
}

// Stats aggregates protocol activity at one node (or, summed, machine-wide).
type Stats struct {
	// Sent counts messages injected, by type.
	Sent [NumMsgTypes]uint64
	// Received counts messages handled, by type.
	Received [NumMsgTypes]uint64
	// PointerOverflows counts RREQs arriving at a full pointer array.
	PointerOverflows uint64
	// Evictions counts limited-directory pointer evictions.
	Evictions uint64
	// Traps counts protocol packets forwarded to software.
	Traps uint64
	// Busies counts BUSY responses issued.
	Busies uint64
	// Retries counts requests re-sent after BUSY.
	Retries uint64
	// InvalidationsSent counts INV/CINV messages issued by this directory.
	InvalidationsSent uint64
	// WriteTxns counts write transactions started (transitions into
	// Write-Transaction state).
	WriteTxns uint64
	// ReadTxns counts read transactions started.
	ReadTxns uint64
	// SWHandled counts packets fully processed by the software handler.
	SWHandled uint64
	// Deferred counts packets queued behind a Trans-In-Progress interlock.
	Deferred uint64
	// DupSuppressed counts fault-injected duplicate deliveries absorbed by
	// the controllers instead of re-running the protocol engine.
	DupSuppressed uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other *Stats) {
	for i := range s.Sent {
		s.Sent[i] += other.Sent[i]
		s.Received[i] += other.Received[i]
	}
	s.PointerOverflows += other.PointerOverflows
	s.Evictions += other.Evictions
	s.Traps += other.Traps
	s.Busies += other.Busies
	s.Retries += other.Retries
	s.InvalidationsSent += other.InvalidationsSent
	s.WriteTxns += other.WriteTxns
	s.ReadTxns += other.ReadTxns
	s.SWHandled += other.SWHandled
	s.Deferred += other.Deferred
	s.DupSuppressed += other.DupSuppressed
}

// TotalSent returns the number of protocol messages injected.
func (s *Stats) TotalSent() uint64 {
	var n uint64
	for _, v := range s.Sent {
		n += v
	}
	return n
}
