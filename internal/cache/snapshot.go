package cache

import (
	"bytes"
	"fmt"
)

// Snapshot is a deep copy of a cache's mutable state: every line's tag,
// state bits, LRU stamp and data, plus the use clock and access counters.
// It is immutable once taken and can be restored into any cache with the
// same geometry any number of times.
type Snapshot struct {
	tags     []uint32
	flags    []uint8 // bit 0 valid, bit 1 dirty
	lastUse  []uint64
	data     []byte // all lines concatenated, line order
	useClock uint64

	hits, misses, writebacks uint64
}

// Snapshot captures the full cache state.
func (c *Cache) Snapshot() *Snapshot {
	n := len(c.lines)
	s := &Snapshot{
		tags:       make([]uint32, n),
		flags:      make([]uint8, n),
		lastUse:    make([]uint64, n),
		data:       make([]byte, n*c.cfg.LineSize),
		useClock:   c.useClock,
		hits:       c.Hits,
		misses:     c.Misses,
		writebacks: c.Writebacks,
	}
	for i := range c.lines {
		ln := &c.lines[i]
		s.tags[i] = ln.tag
		if ln.valid {
			s.flags[i] |= 1
		}
		if ln.dirty {
			s.flags[i] |= 2
		}
		s.lastUse[i] = ln.lastUse
		copy(s.data[i*c.cfg.LineSize:], ln.data)
	}
	return s
}

// CheckShape reports an error unless s was taken from a cache of this
// geometry, so a decoded snapshot can be rejected before Restore would
// panic on it.
func (c *Cache) CheckShape(s *Snapshot) error {
	n := len(c.lines)
	if len(s.tags) != n || len(s.flags) != n || len(s.lastUse) != n || len(s.data) != n*c.cfg.LineSize {
		return fmt.Errorf("%s: snapshot has %d lines and %d data bytes, cache has %d and %d",
			c.cfg.Name, len(s.tags), len(s.data), n, n*c.cfg.LineSize)
	}
	return nil
}

// Restore overwrites the cache state with the snapshot's. The cache must
// have the geometry the snapshot was taken from; a mismatch is a
// programming error and panics.
func (c *Cache) Restore(s *Snapshot) {
	if len(s.tags) != len(c.lines) || len(s.data) != len(c.lines)*c.cfg.LineSize {
		panic("cache: restore into mismatched geometry")
	}
	for i := range c.lines {
		ln := &c.lines[i]
		ln.tag = s.tags[i]
		ln.valid = s.flags[i]&1 != 0
		ln.dirty = s.flags[i]&2 != 0
		ln.lastUse = s.lastUse[i]
		copy(ln.data, s.data[i*c.cfg.LineSize:])
	}
	c.useClock = s.useClock
	c.Hits = s.hits
	c.Misses = s.misses
	c.Writebacks = s.writebacks
}

// EqualsSnapshot reports whether the cache state bit-equals the snapshot
// (convergence-exit support). The use clock and access counters are checked
// first: any access perturbs them, so a diverged cache almost always fails
// without touching the line arrays.
func (c *Cache) EqualsSnapshot(s *Snapshot) bool {
	if len(s.tags) != len(c.lines) || len(s.data) != len(c.lines)*c.cfg.LineSize {
		return false
	}
	if c.useClock != s.useClock || c.Hits != s.hits || c.Misses != s.misses ||
		c.Writebacks != s.writebacks {
		return false
	}
	for i := range c.lines {
		ln := &c.lines[i]
		var flags uint8
		if ln.valid {
			flags |= 1
		}
		if ln.dirty {
			flags |= 2
		}
		if ln.tag != s.tags[i] || flags != s.flags[i] || ln.lastUse != s.lastUse[i] {
			return false
		}
		if !bytes.Equal(ln.data, s.data[i*c.cfg.LineSize:(i+1)*c.cfg.LineSize]) {
			return false
		}
	}
	return true
}

// TrackDirty arms dirty tracking: every row mutated from now on (accessed,
// refilled, flushed or fault-flipped) is recorded, and RestoreDirty can
// rewind the cache to the snapshot it currently equals by restoring only
// those rows. Arming (or re-arming) clears the dirty set, so call it only
// when the cache bit-equals the snapshot that RestoreDirty will be given.
func (c *Cache) TrackDirty() {
	if len(c.rowDirty) != len(c.lines) {
		c.rowDirty = make([]bool, len(c.lines))
	} else {
		for _, row := range c.dirtyRows {
			c.rowDirty[row] = false
		}
	}
	c.dirtyRows = c.dirtyRows[:0]
	c.track = true
}

// RestoreDirty rewinds the cache to snapshot s by restoring only the rows
// mutated since TrackDirty was last armed, then re-arms tracking. It is
// only correct when the cache bit-equalled s at arm time; the delta-restore
// layer guarantees that by arming right after a full Restore of the same
// snapshot.
func (c *Cache) RestoreDirty(s *Snapshot) {
	if len(s.tags) != len(c.lines) || len(s.data) != len(c.lines)*c.cfg.LineSize {
		panic("cache: delta restore into mismatched geometry")
	}
	if !c.track {
		c.Restore(s)
		c.TrackDirty()
		return
	}
	for _, row := range c.dirtyRows {
		i := int(row)
		ln := &c.lines[i]
		ln.tag = s.tags[i]
		ln.valid = s.flags[i]&1 != 0
		ln.dirty = s.flags[i]&2 != 0
		ln.lastUse = s.lastUse[i]
		copy(ln.data, s.data[i*c.cfg.LineSize:(i+1)*c.cfg.LineSize])
		c.rowDirty[i] = false
	}
	c.dirtyRows = c.dirtyRows[:0]
	c.useClock = s.useClock
	c.Hits = s.hits
	c.Misses = s.misses
	c.Writebacks = s.writebacks
}
