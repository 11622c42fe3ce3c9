package mem

import "mbusim/internal/wire"

// Wire runs the snapshot's fields through c, the RAM piece of the
// checkpoint artifact format. The field order is part of that format and
// is versioned by sim.SnapshotFormat; changing it requires bumping that
// constant. A chunk count that cannot fit the RAM size fails the decode;
// byte-level corruption is caught by the artifact's content hash before
// decoding starts.
func (s *Snapshot) Wire(c *wire.Codec) {
	c.U32(&s.size)
	c.Int(&s.latency)
	c.U32(&s.highWater)
	wire.Slice(c, &s.chunks, int(s.size)/snapChunk+1, (*wire.Codec).U32)
	c.Blob(&s.data)
}
