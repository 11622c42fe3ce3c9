package cpu

import (
	"fmt"

	"mbusim/internal/wire"
)

// Wire encoding of core snapshots, the cpu piece of the content-addressed
// checkpoint artifact format. Every field a Snapshot captures is encoded
// except the predecoded text: pretext is derived state, rebuilt from the
// program image by InstallText, so the artifact ships the image hash
// instead and the loader rebinds a locally predecoded text with BindText.
// The field order here is part of the artifact format, versioned by
// sim.SnapshotFormat.

// maxWireSlice bounds every decoded slice length, far above any simulated
// configuration, so a corrupt length cannot drive a giant allocation
// before structural checks run.
const maxWireSlice = 1 << 20

// Wire runs the register-file snapshot's fields through c. The register
// count is written once; the ready bits follow the values.
func (s *RegFileSnapshot) Wire(c *wire.Codec) {
	wire.Slice(c, &s.vals, maxWireSlice, (*wire.Codec).U32)
	if c.Decoding() {
		s.ready = make([]bool, len(s.vals))
	}
	for i := range s.ready {
		c.Bool(&s.ready[i])
	}
}

func wireROBEntry(c *wire.Codec, e *robEntry) {
	c.U64(&e.seq)
	c.U32(&e.pc)
	c.U32(&e.raw)
	c.I32(&e.imm)
	c.U32(&e.predNext)
	c.U32(&e.excAddr)
	c.U32(&e.addrVA)
	c.U32(&e.addrPA)
	c.U32(&e.storeVal)
	wire.Enum(c, &e.op)
	wire.Enum(c, &e.cond)
	wire.Enum(c, &e.exc)
	c.U8(&e.archDest)
	c.U8(&e.newPhys)
	c.U8(&e.oldPhys)
	c.U8(&e.memSize)
	c.Bool(&e.valid)
	c.Bool(&e.done)
	c.Bool(&e.isBranch)
	c.Bool(&e.isLoad)
	c.Bool(&e.isStore)
	c.Bool(&e.isSys)
	c.Bool(&e.memReg)
	c.Bool(&e.addrKnown)
}

func wireFetched(c *wire.Codec, f *fetchedInst) {
	c.U32(&f.pc)
	c.U32(&f.predNext)
	c.U32(&f.excAddr)
	c.U32(&f.raw)
	c.I32(&f.preIdx)
	wire.Enum(c, &f.exc)
}

func wireIQEntry(c *wire.Codec, e *iqEntry) {
	c.U64(&e.seq)
	c.I32(&e.slot)
	for i := range e.srcs {
		c.U8(&e.srcs[i])
	}
}

func wireWBEntry(c *wire.Codec, e *wbEntry) {
	c.U64(&e.seq)
	c.U64(&e.doneCycle)
	c.I32(&e.slot)
	c.U32(&e.val)
	c.U32(&e.brPC)
	c.U32(&e.actualNext)
	c.U8(&e.destPhys)
	c.Bool(&e.isBranch)
	c.Bool(&e.isCond)
	c.Bool(&e.isInd)
	c.Bool(&e.taken)
}

func wirePendingLoad(c *wire.Codec, p *pendingLoad) {
	c.U64(&p.seq)
	c.I32(&p.slot)
}

// Wire runs the core snapshot's fields through c, pretext excluded (see
// the comment above). A decoded snapshot has no predecoded text: BindText
// must attach one before the snapshot is restored into a machine.
func (s *Snapshot) Wire(c *wire.Codec) {
	if c.Decoding() {
		s.rf = new(RegFileSnapshot)
	}
	s.rf.Wire(c)
	for i := range s.renameMap {
		c.U8(&s.renameMap[i])
	}
	for i := range s.archMap {
		c.U8(&s.archMap[i])
	}
	c.Blob(&s.freeList)

	wire.Slice(c, &s.rob, maxWireSlice, wireROBEntry)
	c.Int(&s.robHead)
	c.Int(&s.robCount)
	c.U64(&s.seqNext)

	c.U32(&s.fetchPC)
	wire.Slice(c, &s.fetchQ, maxWireSlice, wireFetched)
	c.Int(&s.fqHead)
	c.U64(&s.fetchReadyAt)
	c.Bool(&s.fetchFaulted)
	c.U32(&s.textBase)

	wire.Slice(c, &s.iq, maxWireSlice, wireIQEntry)
	wire.Slice(c, &s.inflight, maxWireSlice, wireWBEntry)
	wire.Slice(c, &s.pending, maxWireSlice, wirePendingLoad)
	wire.Slice(c, &s.sq, maxWireSlice, (*wire.Codec).I32)
	c.Int(&s.sqHead)
	c.Int(&s.lqCount)
	c.Int(&s.sqCount)

	for i := range s.pred.bimodal {
		c.U8(&s.pred.bimodal[i])
	}
	for i := range s.pred.btbTag {
		c.U32(&s.pred.btbTag[i])
	}
	for i := range s.pred.btbTgt {
		c.U32(&s.pred.btbTgt[i])
	}
	for i := range s.pred.btbOK {
		c.Bool(&s.pred.btbOK[i])
	}

	c.U64(&s.cycle)
	c.U64(&s.lastCommit)
	wire.Enum(c, &s.stopped)
	c.U32(&s.stopPC)
	c.U32(&s.stopAddr)
	c.U64(&s.committed)
	c.U64(&s.mispredicts)
	c.U64(&s.squashes)
}

// BindText attaches the predecoded text of a live core to a decoded
// snapshot. The core must have installed the same program image the
// snapshot was taken under (the artifact layer guarantees this by hashing
// the compiled image into the artifact key); mismatched text bases mean a
// different image and are rejected.
func (s *Snapshot) BindText(c *Core) error {
	if c.textBase != s.textBase {
		return fmt.Errorf("cpu: snapshot text base %#x does not match core text base %#x",
			s.textBase, c.textBase)
	}
	s.pretext = c.pretext
	return nil
}
