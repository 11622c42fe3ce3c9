package mem

import (
	"bytes"
	"fmt"
	"math/bits"
)

// Snapshot support: RAM is by far the largest piece of machine state
// (8 MB), but a workload only ever writes a small, mostly-contiguous
// prefix of it (frames are allocated sequentially and the stack pages are
// largely untouched zeros). Snapshots therefore store only the non-zero
// chunks below the write high-water mark, which keeps a full checkpoint
// set per workload in the hundreds of kilobytes instead of tens of
// megabytes.

// snapChunk is the granularity of sparse RAM snapshots.
const snapChunk = 4096

// Snapshot is a deep, sparse copy of RAM contents. It is immutable once
// taken and safe to restore into any RAM of the same size any number of
// times, including concurrently.
type Snapshot struct {
	size      uint32
	latency   int
	highWater uint32
	chunks    []uint32 // start offsets of stored chunks, ascending
	data      []byte   // concatenated chunk payloads
}

// Snapshot captures the current RAM contents.
func (r *RAM) Snapshot() *Snapshot {
	s := &Snapshot{
		size:      uint32(len(r.bytes)),
		latency:   r.latency,
		highWater: r.highWater,
	}
	for start := uint32(0); start < r.highWater; start += snapChunk {
		end := start + snapChunk
		if end > s.size {
			end = s.size
		}
		chunk := r.bytes[start:end]
		if allZero(chunk) {
			continue
		}
		s.chunks = append(s.chunks, start)
		s.data = append(s.data, chunk...)
	}
	return s
}

// CheckShape reports an error unless s was taken from a RAM of this size
// and its chunks lie inside that RAM and account for its payload exactly,
// so a decoded snapshot can be rejected before Restore would fail on it.
func (r *RAM) CheckShape(s *Snapshot) error {
	size := uint32(len(r.bytes))
	if s.size != size || s.highWater > size {
		return fmt.Errorf("RAM: %d-byte snapshot with high water %d, RAM has %d bytes", s.size, s.highWater, size)
	}
	span := 0
	for i, start := range s.chunks {
		if start%snapChunk != 0 || start >= size || (i > 0 && start <= s.chunks[i-1]) {
			return fmt.Errorf("RAM: snapshot chunk %d at offset %d is misplaced", i, start)
		}
		span += int(min(start+snapChunk, size) - start)
	}
	if span != len(s.data) {
		return fmt.Errorf("RAM: snapshot chunks span %d bytes, payload has %d", span, len(s.data))
	}
	return nil
}

// Restore overwrites the RAM contents with the snapshot's. The RAM must
// have the same size as the snapshotted one (a programming error
// otherwise). Bytes the snapshot recorded as zero are zeroed, so restoring
// into a dirty RAM is exact; restoring into a freshly allocated RAM only
// pays for the non-zero chunks plus the previously written span.
func (r *RAM) Restore(s *Snapshot) {
	if uint32(len(r.bytes)) != s.size {
		Assertf(false, "mem: restore of %d-byte snapshot into %d-byte RAM", s.size, len(r.bytes))
	}
	// Clear everything this RAM may have written, then lay the snapshot's
	// non-zero chunks back down.
	clearTo := r.highWater
	if s.highWater > clearTo {
		clearTo = s.highWater
	}
	zero(r.bytes[:clearTo])
	off := 0
	for _, start := range s.chunks {
		end := int(start) + snapChunk
		if end > int(s.size) {
			end = int(s.size)
		}
		n := end - int(start)
		copy(r.bytes[start:end], s.data[off:off+n])
		off += n
	}
	r.latency = s.latency
	r.highWater = s.highWater
}

// TrackDirty arms dirty tracking: from now on every write marks its chunk,
// and RestoreDirty can rewind the RAM to the snapshot it currently equals
// by touching only the marked chunks. Arming (or re-arming) clears the
// dirty set, so call it only when the RAM bit-equals the snapshot that
// RestoreDirty will later be given.
func (r *RAM) TrackDirty() {
	words := (len(r.bytes)/snapChunk + 63) / 64
	if len(r.chunkDirty) != words {
		r.chunkDirty = make([]uint64, words)
	} else {
		for i := range r.chunkDirty {
			r.chunkDirty[i] = 0
		}
	}
	r.track = true
}

// RestoreDirty rewinds the RAM to snapshot s by restoring only the chunks
// written since TrackDirty was last armed, then re-arms tracking. It is
// only correct when the RAM bit-equalled s at arm time (every untracked
// chunk still holds s's contents); the delta-restore layer guarantees that
// by arming right after a full Restore of the same snapshot.
func (r *RAM) RestoreDirty(s *Snapshot) {
	if uint32(len(r.bytes)) != s.size {
		Assertf(false, "mem: delta restore of %d-byte snapshot into %d-byte RAM", s.size, len(r.bytes))
	}
	if !r.track {
		r.Restore(s)
		r.TrackDirty()
		return
	}
	// Walk the dirty bitmap and the snapshot's sorted chunk offsets in one
	// merged pass: a dirty chunk the snapshot stored is copied back, a
	// dirty chunk it skipped (all-zero at snapshot time) is zeroed.
	si := 0
	for wi, word := range r.chunkDirty {
		if word == 0 {
			continue
		}
		for word != 0 {
			bit := word & (-word)
			ch := uint32(wi)<<6 + uint32(bits.TrailingZeros64(word))
			word &^= bit
			start := ch * snapChunk
			end := start + snapChunk
			if end > s.size {
				end = s.size
			}
			for si < len(s.chunks) && s.chunks[si] < start {
				si++
			}
			if si < len(s.chunks) && s.chunks[si] == start {
				// Every stored chunk is snapChunk long except possibly the
				// final one at the RAM boundary, so the payload offset is a
				// multiplication, not a scan.
				off := si * snapChunk
				copy(r.bytes[start:end], s.data[off:off+int(end-start)])
			} else {
				zero(r.bytes[start:end])
			}
		}
		r.chunkDirty[wi] = 0
	}
	r.latency = s.latency
	r.highWater = s.highWater
}

// EqualsSnapshot reports whether the RAM contents bit-equal the snapshot.
// The campaign's convergence exit uses this to detect that a faulty run's
// state has re-joined the golden run at a checkpoint cycle. Bytes above the
// high-water mark are zero by construction (every write raises the mark),
// so once the marks match, comparing below them is exhaustive.
func (r *RAM) EqualsSnapshot(s *Snapshot) bool {
	if uint32(len(r.bytes)) != s.size || r.latency != s.latency || r.highWater != s.highWater {
		return false
	}
	prev := uint32(0)
	off := 0
	for _, start := range s.chunks {
		if !allZero(r.bytes[prev:start]) {
			return false
		}
		end := start + snapChunk
		if end > s.size {
			end = s.size
		}
		n := int(end - start)
		if !bytes.Equal(r.bytes[start:end], s.data[off:off+n]) {
			return false
		}
		off += n
		prev = end
	}
	// The final stored chunk may extend past the high-water mark, in which
	// case everything written is already compared.
	if prev >= s.highWater {
		return true
	}
	return allZero(r.bytes[prev:s.highWater])
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
