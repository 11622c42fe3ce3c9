package tlb

import (
	"fmt"
	"math/bits"
	"slices"
)

// Snapshot is a deep copy of a TLB's mutable state. It is immutable once
// taken and can be restored into any TLB with the same entry count any
// number of times.
type Snapshot struct {
	entries []uint32
	nextRR  int
	mru     int

	hits, missCount uint64
}

// Snapshot captures the full TLB state.
func (t *TLB) Snapshot() *Snapshot {
	return &Snapshot{
		entries:   append([]uint32(nil), t.entries...),
		nextRR:    t.nextRR,
		mru:       t.mru,
		hits:      t.Hits,
		missCount: t.MissCount,
	}
}

// CheckShape reports an error unless s was taken from a TLB with this
// entry count, so a decoded snapshot can be rejected before Restore would
// panic on it.
func (t *TLB) CheckShape(s *Snapshot) error {
	if len(s.entries) != len(t.entries) {
		return fmt.Errorf("%s: snapshot has %d entries, TLB has %d", t.name, len(s.entries), len(t.entries))
	}
	return nil
}

// Restore overwrites the TLB state with the snapshot's. The TLB must have
// the entry count the snapshot was taken from; a mismatch is a programming
// error and panics.
func (t *TLB) Restore(s *Snapshot) {
	if len(s.entries) != len(t.entries) {
		panic("tlb: restore into mismatched entry count")
	}
	copy(t.entries, s.entries)
	t.nextRR = s.nextRR
	t.mru = s.mru
	t.Hits = s.hits
	t.MissCount = s.missCount
}

// EqualsSnapshot reports whether the TLB state bit-equals the snapshot
// (convergence-exit support). The MRU hint and counters are real state
// here: the MRU entry wins lookups when a corrupted VPN aliases another
// page, so two TLBs must agree on it to behave identically.
func (t *TLB) EqualsSnapshot(s *Snapshot) bool {
	return t.nextRR == s.nextRR && t.mru == s.mru &&
		t.Hits == s.hits && t.MissCount == s.missCount &&
		slices.Equal(t.entries, s.entries)
}

// TrackDirty arms dirty tracking: every entry mutated from now on
// (inserted, invalidated or fault-flipped) is marked, and RestoreDirty can
// rewind the TLB to the snapshot it currently equals by restoring only the
// marked entries. Arming (or re-arming) clears the dirty set, so call it
// only when the TLB bit-equals the snapshot RestoreDirty will be given.
func (t *TLB) TrackDirty() {
	words := (len(t.entries) + 63) / 64
	if len(t.touched) != words {
		t.touched = make([]uint64, words)
	} else {
		for i := range t.touched {
			t.touched[i] = 0
		}
	}
	t.track = true
}

// RestoreDirty rewinds the TLB to snapshot s by restoring only the entries
// mutated since TrackDirty was last armed (the replacement pointer, MRU
// hint and hit/miss counters are scalars and always restored), then
// re-arms tracking. Only correct when the TLB bit-equalled s at arm time.
func (t *TLB) RestoreDirty(s *Snapshot) {
	if len(s.entries) != len(t.entries) {
		panic("tlb: delta restore into mismatched entry count")
	}
	if !t.track {
		t.Restore(s)
		t.TrackDirty()
		return
	}
	for wi, word := range t.touched {
		for word != 0 {
			i := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			t.entries[i] = s.entries[i]
		}
		t.touched[wi] = 0
	}
	t.nextRR = s.nextRR
	t.mru = s.mru
	t.Hits = s.hits
	t.MissCount = s.missCount
}
