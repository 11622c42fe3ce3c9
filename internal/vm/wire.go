package vm

import "mbusim/internal/wire"

// Wire runs the snapshot's fields through c in the artifact wire format
// (field order versioned by sim.SnapshotFormat).
func (s *WalkerSnapshot) Wire(c *wire.Codec) {
	c.U32(&s.root)
	c.U64(&s.walks)
}
