// Package sim assembles the full simulated machine — core, caches, TLBs,
// page walker, physical memory and kernel — and drives it to completion,
// producing the Outcome record that the fault-injection campaign
// classifies.
package sim

import (
	"time"

	"mbusim/internal/asm"
	"mbusim/internal/cache"
	"mbusim/internal/cpu"
	"mbusim/internal/kernel"
	"mbusim/internal/mem"
	"mbusim/internal/tlb"
	"mbusim/internal/vm"
)

// Config describes the whole machine. Defaults follow the paper's Table I.
type Config struct {
	CPU cpu.Config

	L1Size, L1Ways int
	L2Size, L2Ways int
	LineSize       int
	L1Lat, L2Lat   int
	TLBEntries     int
	PABits         int

	// WalkerDirect routes page-table walks straight to physical memory
	// instead of through the L2 cache (the DESIGN.md walker-path
	// ablation: it removes the kernel-panic route through L2 faults).
	WalkerDirect bool
}

// DefaultConfig returns the ARM Cortex-A9-like machine of Table I at
// scaled geometry: the workloads are ~1/256-scale MiBench analogs, so the
// cache capacities are scaled (L1 32KB -> 8KB, L2 512KB -> 64KB, pages
// 4KB -> 1KB) to preserve the occupancy pressure of the paper's
// full-system runs. Associativities, line size, TLB entries and every core
// structure (ROB, IQ, physical register file, widths) keep the Table I
// values; the FIT analysis uses the paper's Table VIII bit counts.
func DefaultConfig() Config {
	return Config{
		CPU:        cpu.DefaultConfig(),
		L1Size:     8 << 10,
		L1Ways:     4,
		L2Size:     64 << 10,
		L2Ways:     8,
		LineSize:   64,
		L1Lat:      2,
		L2Lat:      8,
		TLBEntries: 32,
		PABits:     23, // 8 MB of physical memory
	}
}

// PaperConfig returns the unscaled Table I geometry (32KB L1s, 512KB L2)
// for experiments that want the paper's literal configuration.
func PaperConfig() Config {
	cfg := DefaultConfig()
	cfg.L1Size = 32 << 10
	cfg.L2Size = 512 << 10
	return cfg
}

// Machine is one simulated system instance. Machines are single-use: load
// one program, run it once. Build a fresh Machine per fault-injection run.
type Machine struct {
	Cfg    Config
	RAM    *mem.RAM
	L1I    *cache.Cache
	L1D    *cache.Cache
	L2     *cache.Cache
	ITLB   *tlb.TLB
	DTLB   *tlb.TLB
	Walker *vm.Walker
	Kern   *kernel.Kernel
	Core   *cpu.Core
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	ram := mem.NewRAM(kernel.RAMSize)
	l2 := cache.New(cache.Config{
		Name: "L2", Size: cfg.L2Size, Ways: cfg.L2Ways,
		LineSize: cfg.LineSize, Latency: cfg.L2Lat, PABits: cfg.PABits,
	}, ram)
	l1i := cache.New(cache.Config{
		Name: "L1I", Size: cfg.L1Size, Ways: cfg.L1Ways,
		LineSize: cfg.LineSize, Latency: cfg.L1Lat, PABits: cfg.PABits,
	}, l2)
	l1d := cache.New(cache.Config{
		Name: "L1D", Size: cfg.L1Size, Ways: cfg.L1Ways,
		LineSize: cfg.LineSize, Latency: cfg.L1Lat, PABits: cfg.PABits,
	}, l2)
	itlb := tlb.New("ITLB", cfg.TLBEntries)
	dtlb := tlb.New("DTLB", cfg.TLBEntries)
	kern := kernel.New(ram, l2, l1d)
	var port vm.WordReader = l2
	if cfg.WalkerDirect {
		port = ramPort{ram}
	}
	walker := vm.NewWalker(port, kern.PTRoot(), kernel.NumFrames)
	core := cpu.New(cfg.CPU, l1i, l1d, itlb, dtlb, walker, kern)
	return &Machine{
		Cfg: cfg, RAM: ram, L1I: l1i, L1D: l1d, L2: l2,
		ITLB: itlb, DTLB: dtlb, Walker: walker, Kern: kern, Core: core,
	}
}

// Load places the program image in memory and points the core at its entry.
func (m *Machine) Load(prog *asm.Program) error {
	entry, sp, err := m.Kern.Load(prog)
	if err != nil {
		return err
	}
	m.Core.InstallText(prog.TextBase, prog.Text)
	m.Core.SetPC(entry)
	m.Core.SetArchReg(13, sp)
	return nil
}

// Outcome records how a run ended.
type Outcome struct {
	Stop     cpu.StopKind
	TimedOut bool // hit the cycle limit (the paper's Timeout class)
	// WallTimedOut marks a TimedOut outcome that was forced by the
	// wall-clock watchdog (RunWatched deadline) rather than the simulated
	// cycle limit — the host-side pathological-slowness case.
	WallTimedOut bool
	Assert       bool // simulated-hardware assertion (the Assert class)
	AssertMsg    string
	ExitCode     uint32
	Stdout       []byte
	Truncated    bool
	Cycles       uint64
	Committed    uint64
	KillMsg      string
	PanicMsg     string
}

// Run executes the loaded program until it stops or maxCycles elapse
// (maxCycles == 0 means no limit). If inject is non-nil it is invoked once,
// at cycle injectAt, to flip fault bits in the machine state.
// Simulated-hardware assertions (mem.AssertError panics) are recovered and
// reported in the outcome; any other panic is a simulator bug and
// propagates.
func (m *Machine) Run(maxCycles, injectAt uint64, inject func(*Machine)) (out Outcome) {
	return m.RunWatched(maxCycles, injectAt, inject, nil, time.Time{})
}

// watchdogStride is how many simulated cycles elapse between wall-clock
// checks in RunWatched. A power of two so the gate is a mask, cheap enough
// to leave in the per-cycle loop; the first iteration always checks, so an
// already-expired deadline stops the run before any simulated work.
const watchdogStride = 4096

// RunWatched is Run with a per-cycle observer and a wall-clock watchdog.
// If onCycle is non-nil it is invoked after every Core.Cycle(), which is
// how the forensics layer steps a lockstep shadow machine and the liveness
// profiler samples structure state. If deadline is nonzero and passes
// while the simulation is still running, the run stops with TimedOut and
// WallTimedOut set, complementing the simulated-cycle maxCycles limit. The
// deadline is polled every watchdogStride cycles, so the check costs
// nothing measurable yet a wedged or pathologically slow sample is bounded
// by real time, not just simulated time. A nil onCycle and a zero deadline
// make RunWatched identical to Run.
func (m *Machine) RunWatched(maxCycles, injectAt uint64, inject func(*Machine), onCycle func(*Machine), deadline time.Time) (out Outcome) {
	defer func() {
		if r := recover(); r != nil {
			ae, ok := r.(mem.AssertError)
			if !ok {
				panic(r)
			}
			out = m.outcome()
			out.Assert = true
			out.AssertMsg = ae.Msg
		}
	}()
	watch := !deadline.IsZero()
	ticks := uint64(0)
	for m.Core.Stopped() == cpu.StopNone {
		if inject != nil && m.Core.Cycles() >= injectAt {
			inject(m)
			inject = nil
		}
		if maxCycles > 0 && m.Core.Cycles() >= maxCycles {
			out = m.outcome()
			out.TimedOut = true
			return out
		}
		if watch && ticks&(watchdogStride-1) == 0 && time.Now().After(deadline) {
			out = m.outcome()
			out.TimedOut = true
			out.WallTimedOut = true
			return out
		}
		ticks++
		m.Core.Cycle()
		if onCycle != nil {
			onCycle(m)
		}
	}
	return m.outcome()
}

// ArchDigest summarizes the architecturally visible state of the machine —
// committed instructions, architectural registers, output length and exit
// code — into one comparable word. Two machines running the same program in
// lockstep keep equal digests until a fault becomes architecturally
// visible; the cycle the digests first differ is the forensics layer's
// divergence cycle.
func (m *Machine) ArchDigest() uint64 {
	h := m.Core.ArchHash()
	h = (h ^ uint64(len(m.Kern.Stdout))) * 0x100000001b3
	h = (h ^ uint64(m.Kern.ExitCode)) * 0x100000001b3
	return h
}

// Occupancy samples the valid-entry fraction of every injectable
// structure, the first-order predictor of its AVF (a fault in an invalid
// entry is masked). EXPERIMENTS.md uses these numbers to relate the
// measured AVFs to the paper's full-system occupancies.
func (m *Machine) Occupancy() map[string]float64 {
	return map[string]float64{
		"L1I":       m.L1I.Occupancy(),
		"L1D":       m.L1D.Occupancy(),
		"L1D.dirty": m.L1D.DirtyFraction(),
		"L2":        m.L2.Occupancy(),
		"L2.dirty":  m.L2.DirtyFraction(),
		"ITLB":      m.ITLB.Occupancy(),
		"DTLB":      m.DTLB.Occupancy(),
	}
}

// ramPort adapts RAM to the walker's port, charging the memory latency.
type ramPort struct{ ram *mem.RAM }

func (p ramPort) ReadWord(pa uint32) (uint32, int) {
	return p.ram.ReadWord(pa), p.ram.Latency()
}

func (m *Machine) outcome() Outcome {
	return Outcome{
		Stop:      m.Core.Stopped(),
		ExitCode:  m.Kern.ExitCode,
		Stdout:    m.Kern.Stdout,
		Truncated: m.Kern.Truncated,
		Cycles:    m.Core.Cycles(),
		Committed: m.Core.Committed,
		KillMsg:   m.Kern.KillMsg,
		PanicMsg:  m.Kern.PanicMsg,
	}
}
