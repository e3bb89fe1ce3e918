package coherence

import (
	"limitless/internal/directory"
	"limitless/internal/mesh"
)

// HomeShift positions the home-node field inside a block address: blocks
// are distributed across nodes by the address's high bits (the directory
// "is distributed along with main memory among the processing nodes",
// Section 1), so workloads place data explicitly with BlockAt.
const HomeShift = 24

// BlockAt returns the block address for the index-th block homed at node
// home. Low bits stay distinct so different blocks land on different
// cache lines.
func BlockAt(home mesh.NodeID, index uint64) directory.Addr {
	if index >= 1<<HomeShift {
		panic("coherence: block index overflows home field")
	}
	return directory.Addr(uint64(home)<<HomeShift | index)
}

// HomeOf recovers the home node of a block address: the node whose memory
// module and directory govern the block.
func HomeOf(addr directory.Addr) mesh.NodeID {
	return mesh.NodeID(addr >> HomeShift)
}
