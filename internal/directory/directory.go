// Package directory implements the directory memory of the Alewife
// coherence schemes: the memory-side protocol states of Table 1, the meta
// states of Table 4, and the pointer storage that distinguishes the
// protocols — an unbounded bit vector for the full-map scheme
// (Censier-Feautrier style), and a small fixed array of hardware pointers
// for the limited and LimitLESS schemes.
//
// A directory is distributed: each node owns the entries for the blocks
// whose home is that node (Section 2). One Store instance models one
// node's directory memory.
package directory

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"limitless/internal/mesh"
)

// Addr is a block-aligned physical address. The cache layer converts word
// addresses to block addresses before they reach the directory.
type Addr uint64

// State is a memory-side directory state (paper Table 1).
type State uint8

const (
	// ReadOnly: some number of caches have read-only copies of the data.
	// An empty pointer set means the block is uncached.
	ReadOnly State = iota
	// ReadWrite: exactly one cache has a read-write copy of the data.
	ReadWrite
	// ReadTransaction: holding a read request, update is in progress.
	ReadTransaction
	// WriteTransaction: holding a write request, invalidation is in progress.
	WriteTransaction
)

func (s State) String() string {
	switch s {
	case ReadOnly:
		return "Read-Only"
	case ReadWrite:
		return "Read-Write"
	case ReadTransaction:
		return "Read-Transaction"
	case WriteTransaction:
		return "Write-Transaction"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Meta is a directory meta state (paper Table 4). Meta states control the
// hardware/software hand-off of the LimitLESS protocol.
type Meta uint8

const (
	// Normal: coherence for the block is handled by hardware.
	Normal Meta = iota
	// TransInProgress: interlock — software processing in progress; the
	// controller blocks (BUSYs) protocol packets for the block.
	TransInProgress
	// TrapOnWrite: reads handled by hardware; WREQ, UPDATE and REPM are
	// forwarded to the processor's IPI input queue.
	TrapOnWrite
	// TrapAlways: all protocol packets for the block go to the processor.
	TrapAlways
)

func (m Meta) String() string {
	switch m {
	case Normal:
		return "Normal"
	case TransInProgress:
		return "Trans-In-Progress"
	case TrapOnWrite:
		return "Trap-On-Write"
	case TrapAlways:
		return "Trap-Always"
	default:
		return fmt.Sprintf("Meta(%d)", uint8(m))
	}
}

// PointerSet records which caches hold copies of a block. Implementations
// differ in capacity: the full-map bit vector never overflows; the limited
// pointer array refuses to grow past its hardware capacity, which is the
// event that triggers eviction (Dir_iNB) or a software trap (LimitLESS).
type PointerSet interface {
	// Add records node n. It reports false — leaving the set unchanged —
	// when the set is full and n is not already a member.
	Add(n mesh.NodeID) bool
	// Remove deletes n, reporting whether it was present.
	Remove(n mesh.NodeID) bool
	// Contains reports membership.
	Contains(n mesh.NodeID) bool
	// Len returns the number of recorded pointers.
	Len() int
	// Nodes returns the members in ascending order (a fresh slice).
	Nodes() []mesh.NodeID
	// NodesInto appends the members in ascending order to out and returns
	// the extended slice — the allocation-free counterpart of Nodes for
	// hot paths that own a reusable buffer.
	NodesInto(out []mesh.NodeID) []mesh.NodeID
	// Clear empties the set. The LimitLESS trap handler uses this to
	// "empty the hardware pointers" into its software vector.
	Clear()
	// Cap returns the maximum size, or -1 when unbounded.
	Cap() int
}

// BitVector is a full-map pointer set: one presence bit per processor,
// packed into words. Its memory cost is what the paper's O(N²) complaint
// is about; here it also serves as the software-extended directory the
// LimitLESS trap handler allocates in local memory.
type BitVector struct {
	words []uint64
	n     int
	// sp, set when the vector was built by an oracle-mode Space, routes
	// out-of-range accesses through the installed fault.Recorder as
	// structured violations instead of panics.
	sp *Space
}

// NewBitVector returns an empty bit vector covering nodes [0, n).
func NewBitVector(n int) *BitVector {
	return &BitVector{words: make([]uint64, (n+63)/64), n: n}
}

// check validates n, reporting whether the access may proceed. With a
// recorder installed (guarded runs) an out-of-range node is recorded as a
// structured violation and the operation becomes a no-op; without one it
// panics — a bad node ID in a fault-free deterministic simulation is a
// protocol bug that must fail loudly.
func (b *BitVector) check(n mesh.NodeID) bool {
	if n >= 0 && int(n) < b.n {
		return true
	}
	msg := fmt.Sprintf("node %d outside bit vector of %d", n, b.n)
	if b.sp != nil && b.sp.violation("directory-range", "", msg) {
		return false
	}
	panic("directory: " + msg)
}

// Add implements PointerSet; it never overflows.
func (b *BitVector) Add(n mesh.NodeID) bool {
	if !b.check(n) {
		return false
	}
	b.words[n/64] |= 1 << (uint(n) % 64)
	return true
}

// Remove implements PointerSet.
func (b *BitVector) Remove(n mesh.NodeID) bool {
	if !b.check(n) {
		return false
	}
	mask := uint64(1) << (uint(n) % 64)
	had := b.words[n/64]&mask != 0
	b.words[n/64] &^= mask
	return had
}

// Contains implements PointerSet.
func (b *BitVector) Contains(n mesh.NodeID) bool {
	if !b.check(n) {
		return false
	}
	return b.words[n/64]&(1<<(uint(n)%64)) != 0
}

// Len implements PointerSet.
func (b *BitVector) Len() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Nodes implements PointerSet.
func (b *BitVector) Nodes() []mesh.NodeID {
	return b.NodesInto(make([]mesh.NodeID, 0, b.Len()))
}

// NodesInto implements PointerSet. Bit order is ascending already.
func (b *BitVector) NodesInto(out []mesh.NodeID) []mesh.NodeID {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			out = append(out, mesh.NodeID(wi*64+bit))
			w &^= 1 << uint(bit)
		}
	}
	return out
}

// Clear implements PointerSet.
func (b *BitVector) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Cap implements PointerSet (-1: unbounded up to machine size).
func (b *BitVector) Cap() int { return -1 }

// Limited is the hardware pointer array of a limited or LimitLESS
// directory entry: at most cap simultaneous pointers.
type Limited struct {
	ptrs []mesh.NodeID
	max  int
}

// NewLimited returns an empty pointer array with capacity max (the paper's
// subscript in Dir_iNB / LimitLESS_i).
func NewLimited(max int) *Limited {
	if max < 1 {
		panic("directory: limited pointer array needs capacity >= 1")
	}
	return &Limited{ptrs: make([]mesh.NodeID, 0, max), max: max}
}

// Add implements PointerSet.
func (l *Limited) Add(n mesh.NodeID) bool {
	if l.Contains(n) {
		return true
	}
	if len(l.ptrs) >= l.max {
		return false
	}
	l.ptrs = append(l.ptrs, n)
	return true
}

// Remove implements PointerSet.
func (l *Limited) Remove(n mesh.NodeID) bool {
	for i, p := range l.ptrs {
		if p == n {
			l.ptrs = append(l.ptrs[:i], l.ptrs[i+1:]...)
			return true
		}
	}
	return false
}

// Contains implements PointerSet.
func (l *Limited) Contains(n mesh.NodeID) bool {
	for _, p := range l.ptrs {
		if p == n {
			return true
		}
	}
	return false
}

// Len implements PointerSet.
func (l *Limited) Len() int { return len(l.ptrs) }

// Nodes implements PointerSet.
func (l *Limited) Nodes() []mesh.NodeID {
	return l.NodesInto(make([]mesh.NodeID, 0, len(l.ptrs)))
}

// NodesInto implements PointerSet. The pointer array is tiny (the i of
// Dir_iNB, single digits), so insertion sort beats sort.Slice and — unlike
// it — performs no reflection allocation.
func (l *Limited) NodesInto(out []mesh.NodeID) []mesh.NodeID {
	base := len(out)
	for _, p := range l.ptrs {
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

// Clear implements PointerSet.
func (l *Limited) Clear() { l.ptrs = l.ptrs[:0] }

// Cap implements PointerSet.
func (l *Limited) Cap() int { return l.max }

// Oldest returns the least-recently-added pointer, the FIFO eviction
// victim. It panics on an empty set.
func (l *Limited) Oldest() mesh.NodeID {
	if len(l.ptrs) == 0 {
		panic("directory: Oldest on empty pointer array")
	}
	return l.ptrs[0]
}

// InOrder returns the pointers in arrival order (oldest first) — the
// information FIFO eviction policies need, which the sorted Nodes view
// discards.
func (l *Limited) InOrder() []mesh.NodeID {
	return append([]mesh.NodeID(nil), l.ptrs...)
}

// Entry is one directory entry: protocol state, meta state, the hardware
// pointer set, the acknowledgment counter used by write transactions, the
// Local Bit of Section 4.3, and the memory block's data value.
//
// Data is modelled as a single version word per block: every write
// increments it. That is enough for the consistency checker to detect any
// stale read the protocol lets through.
type Entry struct {
	State State
	Meta  Meta
	// Ptrs is the hardware sharer set, held inline as a packed value (or
	// delegating to a boxed PointerSet oracle — see packed.go).
	Ptrs   SharerSet
	AckCtr int
	// Local is the Local Bit: a dedicated pointer for the home node's own
	// processor so local reads can never overflow the directory.
	Local bool
	// Value is the current memory image of the block.
	Value uint64
	// Pending counts protocol packets for this block currently queued to
	// software (Trans-In-Progress bookkeeping).
	Pending int
	// Chain is the length of the cache-resident sharing list maintained
	// by the chained-directory scheme; unused by the other protocols.
	Chain int
	// MaxSharers is a high-water mark of simultaneously recorded copies —
	// the block's observed worker-set size. Maintained by the controller
	// for the worker-set census (the paper's footing: "previous studies
	// have shown that a small set of pointers is sufficient to capture
	// the worker-set of processors").
	MaxSharers int
}

// NoteSharers updates the worker-set high-water mark.
func (e *Entry) NoteSharers(n int) {
	if n > e.MaxSharers {
		e.MaxSharers = n
	}
}

// Sharers returns how many caches the directory believes hold the block,
// counting the Local Bit.
func (e *Entry) Sharers() int {
	n := e.Ptrs.Len()
	if e.Local {
		n++
	}
	return n
}

// Store is one node's directory memory: entries for every block whose home
// is this node, created on first touch in the uncached Read-Only state.
//
// The store is a pre-sized, power-of-two open-addressing hash table rather
// than a Go map: directory lookups sit on the simulator's hottest path (one
// per protocol message at the home node), and the specialized table avoids
// the runtime map's hash-seed and bucket indirection while keeping exact
// map semantics. Entries themselves are placed in chunked arenas so
// directory growth costs one allocation per chunk, not per block, and every
// *Entry stays stable for the life of the store. Recycle hands the initial
// table and the chunks to process-wide pools for the next store.
type Store struct {
	slots  []slot
	count  int
	chunk  *entryChunk // chunk new entries come from
	used   int         // entries handed out from chunk
	sp     *Space
	setMax int
}

type slot struct {
	addr Addr
	e    *Entry // nil marks an empty slot
}

const (
	// storeInitSlots pre-sizes the table for a typical per-node working
	// set (a few hundred blocks at 64 nodes); must be a power of two.
	storeInitSlots = 256
	// entryChunkLen is the arena granularity.
	entryChunkLen = 128
)

// entryChunk is one arena chunk, linked to the chunk the store filled
// before it so Recycle can walk every chunk without a side list.
type entryChunk struct {
	entries [entryChunkLen]Entry
	prev    *entryChunk
}

// tablePool and chunkPool recycle zeroed initial tables and entry chunks
// across stores.
var tablePool, chunkPool sync.Pool

// NewStore returns an empty directory whose entries draw sharer sets of
// capacity setMax (-1: unbounded full-map vectors) from sp.
func NewStore(sp *Space, setMax int) *Store {
	t, _ := tablePool.Get().(*[storeInitSlots]slot)
	if t == nil {
		t = new([storeInitSlots]slot)
	}
	return &Store{slots: t[:], sp: sp, setMax: setMax}
}

// Recycle zeroes the store's entry chunks and its table, if the table
// never grew past its initial size, and returns them to the pools. Every
// *Entry the store handed out is invalid afterwards, and the store must
// not be used again; a second Recycle does nothing.
func (s *Store) Recycle() {
	if len(s.slots) == storeInitSlots {
		t := (*[storeInitSlots]slot)(s.slots)
		*t = [storeInitSlots]slot{}
		tablePool.Put(t)
	}
	for c := s.chunk; c != nil; {
		prev := c.prev
		*c = entryChunk{}
		chunkPool.Put(c)
		c = prev
	}
	s.slots, s.chunk, s.used, s.count = nil, nil, 0, 0
}

// Space returns the store's word arena — shared with the software
// directory handlers, whose extended vectors spill into the same space.
func (s *Store) Space() *Space { return s.sp }

// SetBytes returns the store's measured sharer-set storage: the inline
// set headers of its entries plus the space's resident spill words (which
// include any software-extended vectors drawing on the same space).
func (s *Store) SetBytes() int {
	return s.count*SetHeaderBytes + s.sp.Bytes()
}

// hashAddr mixes the block address so both the dense per-home index bits
// and the high home bits land uniformly in the table's low bits.
func hashAddr(a Addr) uint64 {
	x := uint64(a) * 0x9E3779B97F4A7C15
	return x ^ (x >> 32)
}

// Entry returns the directory entry for addr, creating it (uncached,
// Read-Only, Normal) on first reference.
func (s *Store) Entry(addr Addr) *Entry {
	e, _ := s.EntryOrCreate(addr)
	return e
}

// EntryOrCreate is Entry plus a created flag, resolved in a single probe.
// The memory controller's dispatch path uses it to apply the scheme's
// default meta state to fresh entries without a separate Lookup.
func (s *Store) EntryOrCreate(addr Addr) (_ *Entry, created bool) {
	mask := uint64(len(s.slots) - 1)
	i := hashAddr(addr) & mask
	for {
		sl := &s.slots[i]
		if sl.e == nil {
			break
		}
		if sl.addr == addr {
			return sl.e, false
		}
		i = (i + 1) & mask
	}
	e := s.newEntry()
	e.State, e.Meta, e.Ptrs = ReadOnly, Normal, s.sp.NewSet(s.setMax)
	if s.count >= len(s.slots)*3/4 {
		s.grow()
		mask = uint64(len(s.slots) - 1)
		i = hashAddr(addr) & mask
		for s.slots[i].e != nil {
			i = (i + 1) & mask
		}
	}
	s.slots[i] = slot{addr: addr, e: e}
	s.count++
	return e, true
}

// Lookup returns the entry for addr without creating one.
func (s *Store) Lookup(addr Addr) (*Entry, bool) {
	mask := uint64(len(s.slots) - 1)
	i := hashAddr(addr) & mask
	for {
		sl := &s.slots[i]
		if sl.e == nil {
			return nil, false
		}
		if sl.addr == addr {
			return sl.e, true
		}
		i = (i + 1) & mask
	}
}

// newEntry takes a zeroed entry from the current arena chunk.
func (s *Store) newEntry() *Entry {
	if s.chunk == nil || s.used == entryChunkLen {
		c, _ := chunkPool.Get().(*entryChunk)
		if c == nil {
			c = new(entryChunk)
		}
		c.prev = s.chunk
		s.chunk, s.used = c, 0
	}
	e := &s.chunk.entries[s.used]
	s.used++
	return e
}

// grow doubles the table and reinserts every live slot.
func (s *Store) grow() {
	old := s.slots
	s.slots = make([]slot, 2*len(old))
	mask := uint64(len(s.slots) - 1)
	for _, sl := range old {
		if sl.e == nil {
			continue
		}
		i := hashAddr(sl.addr) & mask
		for s.slots[i].e != nil {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// Len returns the number of allocated entries.
func (s *Store) Len() int { return s.count }

// ForEach visits every allocated entry in ascending address order.
func (s *Store) ForEach(fn func(Addr, *Entry)) {
	live := make([]slot, 0, s.count)
	for _, sl := range s.slots {
		if sl.e != nil {
			live = append(live, sl)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].addr < live[j].addr })
	for _, sl := range live {
		fn(sl.addr, sl.e)
	}
}
