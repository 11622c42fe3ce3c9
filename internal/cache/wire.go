package cache

import "mbusim/internal/wire"

// maxWireLines bounds the line count a decoded cache snapshot may claim,
// far above any simulated geometry, so a corrupt length cannot drive a
// giant allocation before the structural checks run.
const maxWireLines = 1 << 20

// Wire runs the snapshot's fields through c in the artifact wire format
// (field order versioned by sim.SnapshotFormat). The line count is
// written once, before the tags; flags, LRU stamps and data follow for
// the same lines.
func (s *Snapshot) Wire(c *wire.Codec) {
	wire.Slice(c, &s.tags, maxWireLines, (*wire.Codec).U32)
	n := len(s.tags)
	c.Blob(&s.flags)
	c.Check(len(s.flags) == n, "cache: snapshot flags length %d, want %d", len(s.flags), n)
	if c.Decoding() {
		s.lastUse = make([]uint64, n)
	}
	for i := range s.lastUse {
		c.U64(&s.lastUse[i])
	}
	c.Blob(&s.data)
	c.Check(n == 0 || len(s.data)%n == 0, "cache: snapshot data length %d not a multiple of %d lines", len(s.data), n)
	c.U64(&s.useClock)
	c.U64(&s.hits)
	c.U64(&s.misses)
	c.U64(&s.writebacks)
}
