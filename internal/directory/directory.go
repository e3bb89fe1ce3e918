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
	"sort"
	"sync"
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
	// Ptrs is the hardware sharer set, held inline as a packed value (see
	// packed.go).
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
