package tlb

import "mbusim/internal/wire"

// maxWireEntries bounds the entry count a decoded TLB snapshot may claim.
const maxWireEntries = 1 << 16

// Wire runs the snapshot's fields through c in the artifact wire format
// (field order versioned by sim.SnapshotFormat).
func (s *Snapshot) Wire(c *wire.Codec) {
	wire.Slice(c, &s.entries, maxWireEntries, (*wire.Codec).U32)
	c.Int(&s.nextRR)
	c.Int(&s.mru)
	c.U64(&s.hits)
	c.U64(&s.missCount)
}
