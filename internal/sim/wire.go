package sim

import (
	"mbusim/internal/cache"
	"mbusim/internal/cpu"
	"mbusim/internal/kernel"
	"mbusim/internal/mem"
	"mbusim/internal/tlb"
	"mbusim/internal/vm"
	"mbusim/internal/wire"
)

// SnapshotFormat versions the binary wire encoding of machine snapshots —
// the field lists in the Wire methods of every component package plus
// this one. It is hashed into every checkpoint artifact key, so bumping it
// (required whenever any snapshotted field is added, removed, or
// reordered) silently invalidates every cached artifact instead of letting
// an old build's bytes decode into the wrong fields.
const SnapshotFormat = 1

func (cfg *Config) wire(c *wire.Codec) {
	c.Int(&cfg.CPU.FetchWidth)
	c.Int(&cfg.CPU.IssueWidth)
	c.Int(&cfg.CPU.WBWidth)
	c.Int(&cfg.CPU.CommitWidth)
	c.Int(&cfg.CPU.ROBSize)
	c.Int(&cfg.CPU.IQSize)
	c.Int(&cfg.CPU.PhysRegs)
	c.Int(&cfg.CPU.LQSize)
	c.Int(&cfg.CPU.SQSize)
	c.Int(&cfg.CPU.FetchQSize)
	c.Int(&cfg.CPU.ALULat)
	c.Int(&cfg.CPU.MulLat)
	c.Int(&cfg.CPU.DivLat)
	c.Int(&cfg.CPU.AGULat)
	c.U64(&cfg.CPU.DeadlockLimit)
	c.Bool(&cfg.CPU.InOrder)

	c.Int(&cfg.L1Size)
	c.Int(&cfg.L1Ways)
	c.Int(&cfg.L2Size)
	c.Int(&cfg.L2Ways)
	c.Int(&cfg.LineSize)
	c.Int(&cfg.L1Lat)
	c.Int(&cfg.L2Lat)
	c.Int(&cfg.TLBEntries)
	c.Int(&cfg.PABits)
	c.Bool(&cfg.WalkerDirect)
}

// Wire runs the complete machine snapshot — configuration plus every
// component's state — through c in the artifact wire format. The core's
// predecoded text is deliberately excluded (it is derived from the
// program image); a decoded snapshot must have a text bound with
// BindProgram before it can be restored into a machine.
func (s *Snapshot) Wire(c *wire.Codec) {
	s.Cfg.wire(c)
	if c.Decoding() {
		s.ram = new(mem.Snapshot)
		s.l1i, s.l1d, s.l2 = new(cache.Snapshot), new(cache.Snapshot), new(cache.Snapshot)
		s.itlb, s.dtlb = new(tlb.Snapshot), new(tlb.Snapshot)
		s.walker = new(vm.WalkerSnapshot)
		s.kern = new(kernel.Snapshot)
		s.core = new(cpu.Snapshot)
	}
	s.ram.Wire(c)
	s.l1i.Wire(c)
	s.l1d.Wire(c)
	s.l2.Wire(c)
	s.itlb.Wire(c)
	s.dtlb.Wire(c)
	s.walker.Wire(c)
	s.kern.Wire(c)
	s.core.Wire(c)
}

// BindProgram attaches the predecoded text of a live machine (one that
// has Load-ed the program image the snapshot was taken under) to a decoded
// snapshot, making it restorable. It first checks every component's
// dimensions against m's, so a snapshot whose shape does not match the
// machine it will be restored into is refused here instead of panicking
// at restore. Snapshots taken in-process already share their core's
// pretext and never need binding.
func (s *Snapshot) BindProgram(m *Machine) error {
	for _, err := range []error{
		m.RAM.CheckShape(s.ram),
		m.L1I.CheckShape(s.l1i),
		m.L1D.CheckShape(s.l1d),
		m.L2.CheckShape(s.l2),
		m.ITLB.CheckShape(s.itlb),
		m.DTLB.CheckShape(s.dtlb),
		m.Core.CheckShape(s.core),
	} {
		if err != nil {
			return err
		}
	}
	return s.core.BindText(m.Core)
}
