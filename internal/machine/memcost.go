package machine

import (
	"math/bits"

	"limitless/internal/coherence"
)

// DirectoryMemory quantifies the paper's central memory argument: a
// full-map directory costs one presence bit per processor per entry —
// O(N²) for the machine — while limited and LimitLESS directories cost a
// fixed number of log₂N-bit pointers per entry, O(N) for the machine,
// with LimitLESS adding only transient software vectors in ordinary
// local memory for the few lines that overflow.
type DirectoryMemory struct {
	// Scheme names the directory organization measured.
	Scheme coherence.Scheme
	// Entries is the number of directory entries allocated in the run
	// (one per touched block; a hardware machine would provision one per
	// memory block, scaling these numbers by memory size).
	Entries int
	// HardwareBitsPerEntry is the pointer/state storage per entry.
	HardwareBitsPerEntry int
	// HardwareBits is Entries * HardwareBitsPerEntry.
	HardwareBits int
	// SoftwareVectorBitsPeak is the high-water mark of LimitLESS software
	// vectors (bits), allocated in ordinary local memory only while a
	// line's worker-set exceeds the hardware pointers.
	SoftwareVectorBitsPeak int

	// MeasuredBytes is the simulator's own live directory storage, as
	// distinct from the modeled hardware cost above: the per-entry packed
	// set headers plus every spill word in the arena, summed over all
	// nodes.
	MeasuredBytes int
	// MeasuredBytesPerEntry is MeasuredBytes / Entries (0 when no entry
	// was ever touched).
	MeasuredBytesPerEntry float64
}

// log2up returns ceil(log2(n)) with a minimum of 1.
func log2up(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// bitsPerEntry returns the hardware directory cost of one entry for the
// given scheme on an n-node machine with p hardware pointers, derived from
// the scheme's registry facts.
func bitsPerEntry(scheme coherence.Scheme, n, p int) int {
	info := scheme.Info()
	state := 2           // Table 1: four memory states
	ack := log2up(n + 1) // acknowledgment counter
	ptr := log2up(n)     // one node pointer
	switch {
	case info.SharedUncached:
		return state // no pointers tracked
	case info.ChainedList:
		// Head pointer at memory; the per-cache next pointers live in the
		// caches and scale with cache size, not memory size.
		return ptr + state + ack
	case info.FullMapStorage:
		return n + state + ack // presence bit per processor
	default:
		cost := p*ptr + state + ack
		if info.SoftwareExtended {
			meta := 2 // Table 4: four meta states ("the two bits required")
			local := 1
			cost += meta + local
		}
		return cost
	}
}

// DirectoryMemory reports the run's directory storage for this machine.
func (m *Machine) DirectoryMemory() DirectoryMemory {
	scheme := m.cfg.Params.Scheme
	n := m.cfg.Params.Nodes
	p := m.cfg.Params.Pointers
	per := bitsPerEntry(scheme, n, p)

	entries := 0
	measured := 0
	for _, node := range m.Nodes {
		entries += node.MC.Dir().Len()
		measured += node.MC.Dir().SetBytes()
	}
	swPeak := 0
	for _, node := range m.Nodes {
		if node.SW != nil {
			swPeak += node.SW.Stats().MaxResident * n // one full-map vector = n bits
		}
		if node.SWFull != nil {
			swPeak += node.SWFull.Stats().MaxResident * n
		}
	}
	dm := DirectoryMemory{
		Scheme:                 scheme,
		Entries:                entries,
		HardwareBitsPerEntry:   per,
		HardwareBits:           entries * per,
		SoftwareVectorBitsPeak: swPeak,
		MeasuredBytes:          measured,
	}
	if entries > 0 {
		dm.MeasuredBytesPerEntry = float64(measured) / float64(entries)
	}
	return dm
}

// BitsPerEntry exposes the per-entry cost model for a hypothetical
// machine size, for the asymptotic table (Figure-free, but it is the
// paper's Section 1/3.1 argument).
func BitsPerEntry(scheme coherence.Scheme, nodes, pointers int) int {
	return bitsPerEntry(scheme, nodes, pointers)
}
