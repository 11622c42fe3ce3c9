package kernel

import "mbusim/internal/wire"

// Wire runs the snapshot's fields through c in the artifact wire format
// (field order versioned by sim.SnapshotFormat).
func (s *Snapshot) Wire(c *wire.Codec) {
	c.U32(&s.ptRoot)
	c.U32(&s.nextFrame)
	c.Bool(&s.booted)
	c.U32(&s.heapStart)
	c.U32(&s.brk)
	c.Blob(&s.stdout)
	c.Bool(&s.truncated)
	c.U32(&s.exitCode)
	c.String(&s.killMsg)
	c.String(&s.panicMsg)
}
