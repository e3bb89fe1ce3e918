package directory

import (
	"fmt"
	"math/bits"
	"unsafe"

	"limitless/internal/fault"
	"limitless/internal/mesh"
)

// This file holds the packed sharer-set storage: the simulator-side answer
// to the paper's own memory argument. A boxed set — an interface value
// pointing at a heap object that holds a slice — costs a 16-byte interface
// header, a 32-byte object and the slice's words per directory entry: at
// P=1024 a full-map entry paid more for Go object overhead than for
// presence bits, which both defeats the scheme being modelled and blocks
// scaling the machine past the paper's 64 processors. The boxed sets were
// measured against this storage and then deleted (DESIGN.md, Verdicts);
// experiments.StoragePoint computes their footprint from that layout.
//
// A SharerSet is a 24-byte value held inline in Entry. Up to inlineCap
// node IDs live in a fixed array of 16-bit Nodes (the small-worker-set
// case the paper's argument rests on); only when a set actually outgrows
// the inline array does it spill to words bump-allocated from the node's
// Space — a bit vector for unbounded (full-map and software-extended)
// sets, a 16-bit-lane array preserving arrival order for bounded pointer
// arrays wider than the inline capacity. Cleared sets return their words
// to a size-keyed free list, so write transactions recycle spill storage
// instead of leaking it.

// Node is the compact node-ID type of the packed directory: a 16-bit
// hardware pointer, wide enough for the ROADMAP's P=1024 meshes with room
// to spare. The hot sharer-walk buffers use it so a P=1024 walk touches a
// quarter of the cache lines the old []mesh.NodeID buffers did.
type Node uint16

// MaxNodes is the largest machine the 16-bit packed node IDs address.
const MaxNodes = 1 << 16

// StorageMode named a sharer-set backend when there were two.
//
// Deprecated: packed storage is the only backend. NewSpace still accepts
// StoragePacked for its last caller, bench/replay.go; once that call drops
// the argument, the type goes.
type StorageMode uint8

// StoragePacked is the packed backend, the only one.
//
// Deprecated: see StorageMode.
const StoragePacked StorageMode = 0

// Space is a per-store word arena: the backing storage every packed set of
// one node's directory (hardware entries and software-extended vectors
// alike) spills into. Offsets into the flat word slice stay valid across
// growth, so sets hold a uint32 offset rather than a pointer. Freed spill
// areas park in a size-keyed free list and are reused verbatim — spill
// storage is recycled, never leaked, and the allocation pattern stays
// deterministic.
type Space struct {
	nodes int
	rec   *fault.Recorder

	words []uint64
	free  map[int][]uint32 // made on the first release
	live  int              // words currently attached to live sets
}

// NewSpace returns an empty arena for sets over nodes [0, n). The optional
// StorageMode argument is ignored (see StorageMode).
func NewSpace(n int, _ ...StorageMode) *Space {
	if n < 1 {
		panic("directory: Space needs nodes >= 1")
	}
	if n > MaxNodes {
		panic(fmt.Sprintf("directory: %d nodes exceed the packed node-ID width (max %d)", n, MaxNodes))
	}
	return &Space{nodes: n}
}

// Nodes returns the machine size the space's sets cover.
func (sp *Space) Nodes() int { return sp.nodes }

// SetRecorder installs a violation recorder: out-of-range node IDs and
// malformed set shapes are then recorded as structured violations (and the
// operation dropped) instead of panicking, matching the controllers'
// dispatch-path downgrade.
func (sp *Space) SetRecorder(r *fault.Recorder) { sp.rec = r }

// Bytes returns the resident spill storage: the live arena words.
// Per-entry SharerSet headers are not included (see SetHeaderBytes).
func (sp *Space) Bytes() int { return sp.live * 8 }

// violation records (or raises) a set-shape violation.
func (sp *Space) violation(kind, state, msg string) bool {
	if sp.rec != nil {
		sp.rec.Record(fault.Violation{Node: -1, Kind: kind, State: state, Msg: msg})
		return true
	}
	return false
}

// alloc carves nwords zeroed words out of the arena, reusing a freed area
// of the exact size when one is available.
func (sp *Space) alloc(nwords int) uint32 {
	if fl := sp.free[nwords]; len(fl) > 0 {
		off := fl[len(fl)-1]
		sp.free[nwords] = fl[:len(fl)-1]
		for i := 0; i < nwords; i++ {
			sp.words[int(off)+i] = 0
		}
		sp.live += nwords
		return off
	}
	off := uint32(len(sp.words))
	for i := 0; i < nwords; i++ {
		sp.words = append(sp.words, 0)
	}
	sp.live += nwords
	return off
}

// release returns a spill area to the free list.
func (sp *Space) release(off uint32, nwords int) {
	if sp.free == nil {
		sp.free = make(map[int][]uint32)
	}
	sp.free[nwords] = append(sp.free[nwords], off)
	sp.live -= nwords
}

// NewSet builds an empty sharer set. max is the hardware pointer capacity
// (the i of Dir_iNB / LimitLESS_i); -1 builds an unbounded full-map set.
func (sp *Space) NewSet(max int) SharerSet {
	if max == 0 || max < -1 {
		panic("directory: limited pointer array needs capacity >= 1")
	}
	if max > maxBounded {
		panic(fmt.Sprintf("directory: pointer capacity %d exceeds the packed limit %d", max, maxBounded))
	}
	return SharerSet{sp: sp, max: int16(max)}
}

const (
	// inlineCap is the small-set optimization width: sharer sets of up to
	// four members — the paper's LimitLESS_4 hardware pointer count, and
	// per its worker-set argument the overwhelmingly common case — never
	// touch the arena.
	inlineCap = 4
	// maxBounded bounds the hardware pointer capacity representable by
	// the int16 field.
	maxBounded = 1<<15 - 1

	flagSpilled uint8 = 1 << 0
)

// SetHeaderBytes is the per-entry cost of the inline SharerSet value,
// used by the measured bytes-per-entry accounting.
var SetHeaderBytes = int(unsafe.Sizeof(SharerSet{}))

// SharerSet records which caches hold copies of a block. Its capacity is
// what distinguishes the protocols: an unbounded full-map set never
// overflows; a limited pointer array refuses to grow past its hardware
// capacity, which is the event that triggers eviction (Dir_iNB) or a
// software trap (LimitLESS). The zero value is unusable; sets are built by
// Space.NewSet (directly or through a Store). Besides the set operations
// it offers the FIFO views (Oldest, InOrder) the eviction policies need.
type SharerSet struct {
	sp     *Space
	inline [inlineCap]Node // members in arrival order while unspilled
	count  uint8           // inline member count (unspilled only)
	flags  uint8
	max    int16  // pointer capacity; -1 unbounded
	off    uint32 // arena word offset (spilled)
}

// spillWords returns the arena footprint of this set once spilled: a bit
// vector for unbounded sets, a count word plus 16-bit lanes preserving
// arrival order for bounded ones.
func (s *SharerSet) spillWords() int {
	if s.max < 0 {
		return (s.sp.nodes + 63) / 64
	}
	return 1 + (int(s.max)+3)/4
}

func (s *SharerSet) checkRange(n mesh.NodeID) bool {
	if n >= 0 && int(n) < s.sp.nodes {
		return true
	}
	msg := fmt.Sprintf("node %d outside pointer set of %d nodes", n, s.sp.nodes)
	if s.sp.violation("directory-range", "", msg) {
		return false
	}
	panic("directory: " + msg)
}

// lane reads the i-th arrival-ordered member of a bounded spilled set.
func (s *SharerSet) lane(i int) Node {
	w := s.sp.words[int(s.off)+1+i/4]
	return Node(w >> (uint(i%4) * 16))
}

func (s *SharerSet) setLane(i int, n Node) {
	idx := int(s.off) + 1 + i/4
	shift := uint(i%4) * 16
	s.sp.words[idx] = s.sp.words[idx]&^(uint64(0xFFFF)<<shift) | uint64(n)<<shift
}

// spill moves the inline members into a fresh arena area.
func (s *SharerSet) spill() {
	off := s.sp.alloc(s.spillWords())
	if s.max < 0 {
		for i := 0; i < int(s.count); i++ {
			n := s.inline[i]
			s.sp.words[int(off)+int(n)/64] |= 1 << (uint(n) % 64)
		}
	} else {
		s.sp.words[off] = uint64(s.count)
		s.off = off
		for i := 0; i < int(s.count); i++ {
			s.setLane(i, s.inline[i])
		}
	}
	s.off = off
	s.flags |= flagSpilled
}

// Add records node n. It reports false — leaving the set unchanged — when
// the set is at its hardware capacity and n is not already a member (the
// overflow event that triggers eviction or a software trap).
func (s *SharerSet) Add(n mesh.NodeID) bool {
	if !s.checkRange(n) {
		return false
	}
	if s.flags&flagSpilled == 0 {
		for i := 0; i < int(s.count); i++ {
			if s.inline[i] == Node(n) {
				return true
			}
		}
		if s.max >= 0 && int(s.count) >= int(s.max) {
			return false
		}
		if int(s.count) < inlineCap {
			s.inline[s.count] = Node(n)
			s.count++
			return true
		}
		s.spill()
	}
	if s.max < 0 {
		s.sp.words[int(s.off)+int(n)/64] |= 1 << (uint(n) % 64)
		return true
	}
	cnt := int(s.sp.words[s.off])
	for i := 0; i < cnt; i++ {
		if s.lane(i) == Node(n) {
			return true
		}
	}
	if cnt >= int(s.max) {
		return false
	}
	s.setLane(cnt, Node(n))
	s.sp.words[s.off] = uint64(cnt + 1)
	return true
}

// Remove deletes n, reporting whether it was present. Arrival order of the
// remaining members is preserved.
func (s *SharerSet) Remove(n mesh.NodeID) bool {
	if !s.checkRange(n) {
		return false
	}
	if s.flags&flagSpilled == 0 {
		for i := 0; i < int(s.count); i++ {
			if s.inline[i] == Node(n) {
				copy(s.inline[i:], s.inline[i+1:s.count])
				s.count--
				return true
			}
		}
		return false
	}
	if s.max < 0 {
		idx := int(s.off) + int(n)/64
		mask := uint64(1) << (uint(n) % 64)
		had := s.sp.words[idx]&mask != 0
		s.sp.words[idx] &^= mask
		return had
	}
	cnt := int(s.sp.words[s.off])
	for i := 0; i < cnt; i++ {
		if s.lane(i) == Node(n) {
			for j := i; j < cnt-1; j++ {
				s.setLane(j, s.lane(j+1))
			}
			s.sp.words[s.off] = uint64(cnt - 1)
			return true
		}
	}
	return false
}

// Contains reports membership.
func (s *SharerSet) Contains(n mesh.NodeID) bool {
	if !s.checkRange(n) {
		return false
	}
	if s.flags&flagSpilled == 0 {
		for i := 0; i < int(s.count); i++ {
			if s.inline[i] == Node(n) {
				return true
			}
		}
		return false
	}
	if s.max < 0 {
		return s.sp.words[int(s.off)+int(n)/64]&(1<<(uint(n)%64)) != 0
	}
	cnt := int(s.sp.words[s.off])
	for i := 0; i < cnt; i++ {
		if s.lane(i) == Node(n) {
			return true
		}
	}
	return false
}

// Len returns the number of recorded pointers.
func (s *SharerSet) Len() int {
	if s.flags&flagSpilled == 0 {
		return int(s.count)
	}
	if s.max >= 0 {
		return int(s.sp.words[s.off])
	}
	total := 0
	for i, nw := 0, s.spillWords(); i < nw; i++ {
		total += bits.OnesCount64(s.sp.words[int(s.off)+i])
	}
	return total
}

// NodesInto appends the members in ascending order to out and returns the
// extended slice — the allocation-free walk the hot paths use, in the
// compact node type.
func (s *SharerSet) NodesInto(out []Node) []Node {
	if s.flags&flagSpilled == 0 {
		return insertNodes(out, s.inline[:s.count])
	}
	if s.max < 0 {
		for i, nw := 0, s.spillWords(); i < nw; i++ {
			w := s.sp.words[int(s.off)+i]
			for w != 0 {
				bit := bits.TrailingZeros64(w)
				out = append(out, Node(i*64+bit))
				w &^= 1 << uint(bit)
			}
		}
		return out
	}
	cnt := int(s.sp.words[s.off])
	base := len(out)
	for i := 0; i < cnt; i++ {
		p := s.lane(i)
		j := len(out)
		out = append(out, p)
		for j > base && out[j-1] > p {
			out[j] = out[j-1]
			j--
		}
		out[j] = p
	}
	return out
}

// insertNodes appends src to out keeping out[base:] ascending.
func insertNodes(out []Node, src []Node) []Node {
	base := len(out)
	for _, p := range src {
		j := len(out)
		out = append(out, p)
		for j > base && out[j-1] > p {
			out[j] = out[j-1]
			j--
		}
		out[j] = p
	}
	return out
}

// Nodes returns the members in ascending order as full node IDs (a fresh
// slice; tests and cold paths only).
func (s *SharerSet) Nodes() []mesh.NodeID {
	compact := s.NodesInto(make([]Node, 0, s.Len()))
	out := make([]mesh.NodeID, len(compact))
	for i, n := range compact {
		out[i] = mesh.NodeID(n)
	}
	return out
}

// Clear empties the set. A spilled packed set returns its arena words to
// the space's free list (the "unspill"), so the storage of a wide sharer
// set is reclaimed the moment a write transaction clears it.
func (s *SharerSet) Clear() {
	if s.flags&flagSpilled != 0 {
		s.sp.release(s.off, s.spillWords())
		s.flags &^= flagSpilled
		s.off = 0
	}
	s.count = 0
}

// Cap returns the hardware pointer capacity, or -1 when unbounded.
func (s *SharerSet) Cap() int {
	return int(s.max)
}

// Oldest returns the least-recently-added pointer — the FIFO eviction
// victim. A malformed call (empty set, or a full-map set whose spill
// discarded arrival order) flows through the installed recorder as a
// structured violation, returning node 0; without a recorder it panics.
func (s *SharerSet) Oldest() mesh.NodeID {
	if s.Len() == 0 {
		if s.sp.violation("directory-shape", "", "Oldest on empty pointer array") {
			return 0
		}
		panic("directory: Oldest on empty pointer array")
	}
	if s.flags&flagSpilled == 0 {
		return mesh.NodeID(s.inline[0])
	}
	if s.max >= 0 {
		return mesh.NodeID(s.lane(0))
	}
	if s.sp.violation("directory-shape", "", "Oldest on a spilled full-map set") {
		return 0
	}
	panic("directory: Oldest on a spilled full-map set")
}

// InOrder returns the pointers in arrival order, oldest first — the
// information FIFO eviction needs, which the sorted Nodes view discards.
// Unbounded sets, which never evict, fall back to ascending order.
func (s *SharerSet) InOrder() []mesh.NodeID {
	if s.flags&flagSpilled == 0 {
		out := make([]mesh.NodeID, s.count)
		for i := 0; i < int(s.count); i++ {
			out[i] = mesh.NodeID(s.inline[i])
		}
		return out
	}
	if s.max >= 0 {
		cnt := int(s.sp.words[s.off])
		out := make([]mesh.NodeID, cnt)
		for i := 0; i < cnt; i++ {
			out[i] = mesh.NodeID(s.lane(i))
		}
		return out
	}
	return s.Nodes()
}

// Release empties the set and returns its spill words to the space. The
// software directory calls it when it frees a vector.
func (s *SharerSet) Release() {
	s.Clear()
	s.sp = nil
}
