package forensics

import (
	"fmt"

	"mbusim/internal/cache"
	"mbusim/internal/cpu"
	"mbusim/internal/tlb"
)

// This file is the one event model of the injectable structures: which
// cells each hardware event reads, writes back, overwrites or refills. The
// fault Tracker and the liveness profiler are both Sinks over it, so the
// per-sample fates and the whole-run profiles describe the same events.

// EventKind says what a hardware event does to the cells it reports.
type EventKind uint8

const (
	// Read: the bits enter the datapath (a data read, a tag or CAM
	// compare, the valid/dirty check that picks a fill victim).
	Read EventKind = iota
	// Writeback: the bits escape to the next memory level.
	Writeback
	// Write: the bits are overwritten with new state.
	Write
	// Refill: a cache line refill rewrites the bits.
	Refill
)

// Sink receives a structure's event stream: each event as one or more
// half-open cell-index ranges [lo, hi) in the structure's Geometry.
type Sink interface {
	OnCells(k EventKind, lo, hi int)
}

// Class is one bit class of a structure: PerRow cells in every row, each
// Width bits wide, numbered row-major from Base.
type Class struct {
	Name   string
	Width  int
	PerRow int
	Base   int
}

// Geometry maps a structure's injectable bits (row x column) onto cells,
// the unit the event stream reports. Classes are laid out one after the
// other: cache valid, dirty, tag (one cell per row) and data (one cell per
// byte); TLB cam, payload and spare (one cell per row each, class index ==
// tlb.ColClass); register data and ready (one cell per row each).
type Geometry struct {
	Name       string
	Rows, Cols int
	Classes    []Class
	Cells      int // total cell count
	ways       int // caches: rows per set
	// col maps a column to its class and the cell's offset within the row.
	col func(col int) (class, off int)
}

// Class indices of the three layouts.
const (
	cacheValid, cacheDirty, cacheTag, cacheData = 0, 1, 2, 3
	tlbCAM, tlbPayload                          = int(tlb.ColCAM), int(tlb.ColPayload)
	regData, regReady                           = 0, 1
)

func newGeometry(name string, rows, cols int, col func(int) (int, int), classes ...Class) *Geometry {
	g := &Geometry{Name: name, Rows: rows, Cols: cols, Classes: classes, col: col}
	for k := range g.Classes {
		g.Classes[k].Base = g.Cells
		g.Cells += rows * g.Classes[k].PerRow
	}
	return g
}

// Cell returns the index of the cell holding bit (row, col).
func (g *Geometry) Cell(row, col int) int {
	k, off := g.col(col)
	return g.at(k, row) + off
}

// at returns the index of class k's first cell in row.
func (g *Geometry) at(k, row int) int {
	return g.Classes[k].Base + row*g.Classes[k].PerRow
}

func cacheGeometry(c *cache.Cache) *Geometry {
	sb := c.StateBits()
	col := func(col int) (int, int) {
		switch {
		case col == 0:
			return cacheValid, 0
		case col == 1:
			return cacheDirty, 0
		case col < sb:
			return cacheTag, 0
		}
		return cacheData, (col - sb) / 8
	}
	g := newGeometry(c.Name(), c.Rows(), c.Cols(), col,
		Class{Name: "valid", Width: 1, PerRow: 1},
		Class{Name: "dirty", Width: 1, PerRow: 1},
		Class{Name: "tag", Width: sb - 2, PerRow: 1},
		Class{Name: "data", Width: 8, PerRow: c.Config().LineSize})
	g.ways = c.Config().Ways
	return g
}

func tlbGeometry(tb *tlb.TLB) *Geometry {
	classes := []Class{{Name: "cam", PerRow: 1}, {Name: "payload", PerRow: 1}, {Name: "spare", PerRow: 1}}
	for col := 0; col < tlb.EntryBits; col++ {
		classes[tlb.ClassifyCol(col)].Width++
	}
	col := func(col int) (int, int) { return int(tlb.ClassifyCol(col)), 0 }
	return newGeometry(tb.Name(), tb.Rows(), tb.Cols(), col, classes...)
}

func regGeometry(rf *cpu.RegFile) *Geometry {
	col := func(col int) (int, int) {
		if col == cpu.ReadyCol {
			return regReady, 0
		}
		return regData, 0
	}
	return newGeometry(rf.Name(), rf.Rows(), rf.Cols(), col,
		Class{Name: "data", Width: cpu.ReadyCol, PerRow: 1}, // columns 0..ReadyCol-1
		Class{Name: "ready", Width: 1, PerRow: 1})
}

// Listen installs the event adapter as target's probe (a *cache.Cache,
// *tlb.TLB or *cpu.RegFile), reporting every access to sink in the cells
// of the returned geometry. detach removes the probe again.
func Listen(target any, sink Sink) (g *Geometry, detach func(), err error) {
	p := &probe{sink: sink}
	switch tg := target.(type) {
	case *cache.Cache:
		p.g = cacheGeometry(tg)
		tg.SetProbe(p)
		detach = func() { tg.SetProbe(nil) }
	case *tlb.TLB:
		p.g = tlbGeometry(tg)
		tg.SetProbe(p)
		detach = func() { tg.SetProbe(nil) }
	case *cpu.RegFile:
		p.g = regGeometry(tg)
		tg.SetProbe(p)
		detach = func() { tg.SetProbe(nil) }
	default:
		return nil, nil, fmt.Errorf("forensics: unsupported target %T", target)
	}
	return p.g, detach, nil
}

// probe is the one implementation of cache.Probe, tlb.Probe and
// cpu.RegProbe. The probes model what the hardware consults per access: a
// set-associative lookup reads valid + tag of every way in the probed set,
// a TLB lookup CAM-compares valid + VPN of every entry.
type probe struct {
	g    *Geometry
	sink Sink
}

// emit reports a k event on n cells of class, from cell off of row on.
func (p *probe) emit(k EventKind, class, row, off, n int) {
	lo := p.g.at(class, row) + off
	p.sink.OnCells(k, lo, lo+n)
}

// line reports a k event on every cell of row.
func (p *probe) line(k EventKind, row int) {
	for c := range p.g.Classes {
		p.emit(k, c, row, 0, p.g.Classes[c].PerRow)
	}
}

// OnLookup implements cache.Probe: the parallel tag read consults valid +
// tag bits of every way in the probed set (one cell per row, so the set's
// ways are adjacent cells).
func (p *probe) OnLookup(set uint32) {
	row := int(set) * p.g.ways
	p.emit(Read, cacheValid, row, 0, p.g.ways)
	p.emit(Read, cacheTag, row, 0, p.g.ways)
}

// OnReadData implements cache.Probe.
func (p *probe) OnReadData(row, off, n int) { p.emit(Read, cacheData, row, off, n) }

// OnWriteData implements cache.Probe: the written bytes are overwritten,
// and so is the dirty bit (stores set it unconditionally).
func (p *probe) OnWriteData(row, off, n int) {
	p.emit(Write, cacheData, row, off, n)
	p.emit(Write, cacheDirty, row, 0, 1)
}

// OnEvict implements cache.Probe: choosing a fill victim consults its valid
// and dirty bits.
func (p *probe) OnEvict(row int) {
	p.emit(Read, cacheValid, row, 0, 1)
	p.emit(Read, cacheDirty, row, 0, 1)
}

// OnWriteback implements cache.Probe: the victim's tag bits form the
// writeback address and its data bytes escape to the next level.
func (p *probe) OnWriteback(row int) {
	p.emit(Writeback, cacheTag, row, 0, 1)
	p.emit(Writeback, cacheData, row, 0, p.g.Classes[cacheData].PerRow)
}

// OnFill implements cache.Probe: a refill rewrites the whole line.
func (p *probe) OnFill(row int) { p.line(Refill, row) }

// OnTLBLookup implements tlb.Probe: the CAM compare consults the CAM cells
// of every entry; on a hit, the hit entry's payload enters the datapath.
func (p *probe) OnTLBLookup(hit int) {
	p.emit(Read, tlbCAM, 0, 0, p.g.Rows)
	if hit >= 0 {
		p.emit(Read, tlbPayload, hit, 0, 1)
	}
}

// OnTLBInsert implements tlb.Probe: the whole entry is overwritten.
func (p *probe) OnTLBInsert(row int) { p.line(Write, row) }

// OnTLBInvalidate implements tlb.Probe: every entry is cleared.
func (p *probe) OnTLBInvalidate() { p.sink.OnCells(Write, 0, p.g.Cells) }

// OnRegRead implements cpu.RegProbe.
func (p *probe) OnRegRead(row int) { p.emit(Read, regData, row, 0, 1) }

// OnRegReadyRead implements cpu.RegProbe.
func (p *probe) OnRegReadyRead(row int) { p.emit(Read, regReady, row, 0, 1) }

// OnRegWrite implements cpu.RegProbe: the value and ready bit are both
// rewritten.
func (p *probe) OnRegWrite(row int) { p.line(Write, row) }

// OnRegAlloc implements cpu.RegProbe: reallocation rewrites the ready bit;
// the stale (possibly corrupted) value survives until the producer writes.
func (p *probe) OnRegAlloc(row int) { p.emit(Write, regReady, row, 0, 1) }
