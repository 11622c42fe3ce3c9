package liveness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"

	"mbusim/internal/wire"
)

// ProfileFormat versions the profile container layout (magic, header,
// payload field order, hash trailer). Bump it on any encoding change; the
// decoder rejects every other version.
const ProfileFormat = 1

// MaxWindows bounds the occupancy window count a profile may carry, far
// above any useful resolution.
const MaxWindows = 4096

// profileMagic opens every encoded profile.
var profileMagic = [4]byte{'M', 'B', 'U', 'P'}

// Decoder bounds, far above any real machine configuration.
const (
	maxProfileComponents = 16
	maxProfileClasses    = 16
	maxProfileRows       = 1 << 22
	maxProfileCols       = 1 << 16
)

// ClassProfile aggregates one bit class (cache valid/dirty/tag/data, TLB
// cam/payload/spare, register data/ready) of one structure over the run.
type ClassProfile struct {
	Name string
	Bits uint64 // bits of this class in the structure
	// AceBitCycles sums, over every write..last-read generation of every
	// cell, the interval length times the cell width: the bit-cycles during
	// which a flip would have been consumed.
	AceBitCycles uint64
	// NeverBitCycles sums each cell's dead tail (run end minus its last
	// event of any kind) times the cell width: the bit-cycles during which
	// a flip would never have been touched again.
	NeverBitCycles uint64
	Defs           uint64 // overwrite events (generations opened)
	Reads          uint64 // first-consume events (generations read)
	// Life is the log2 histogram of write-to-first-consume latencies:
	// bucket 0 same-cycle, bucket b latencies in [2^(b-1), 2^b).
	Life [LifeBuckets]uint64
}

// LifePercentile returns the approximate p-th percentile (nearest-rank) of
// the class's first-consume lifetimes as the upper edge of its histogram
// bucket, in cycles; 0 when the class was never consumed.
func (c *ClassProfile) LifePercentile(pct int) uint64 {
	var total uint64
	for _, n := range c.Life {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := (uint64(pct)*total + 99) / 100
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b, n := range c.Life {
		cum += n
		if cum >= rank {
			if b == 0 {
				return 0
			}
			return uint64(1) << uint(b)
		}
	}
	return uint64(1) << (LifeBuckets - 1)
}

// ComponentProfile is one structure's liveness record.
type ComponentProfile struct {
	Name string
	Rows int
	Cols int
	// Classes partition the Rows x Cols geometry; their Bits sum to
	// Rows*Cols.
	Classes []ClassProfile
	// OccBP is the valid-entry fraction at each window boundary, in basis
	// points; DirtyBP the dirty fraction (caches only, else nil).
	OccBP   []uint32
	DirtyBP []uint32
	// RowValid is the per-row valid bitmap at each window boundary,
	// window-major: ceil(Rows/8) bytes per window, row r of window w at
	// byte w*ceil(Rows/8)+r/8, bit r%8.
	RowValid []byte
}

// TotalBits is the structure's injectable bit count.
func (c *ComponentProfile) TotalBits() uint64 { return uint64(c.Rows) * uint64(c.Cols) }

// Ace sums ACE bit-cycles across classes.
func (c *ComponentProfile) Ace() uint64 {
	var n uint64
	for i := range c.Classes {
		n += c.Classes[i].AceBitCycles
	}
	return n
}

// Never sums never-touched bit-cycles across classes.
func (c *ComponentProfile) Never() uint64 {
	var n uint64
	for i := range c.Classes {
		n += c.Classes[i].NeverBitCycles
	}
	return n
}

// RowValidAt reports row's valid bit in the given window's bitmap.
func (c *ComponentProfile) RowValidAt(win, row int) bool {
	rb := (c.Rows + 7) / 8
	return c.RowValid[win*rb+row/8]>>(row%8)&1 == 1
}

// LifePercentile returns the component-wide first-consume lifetime
// percentile, merging every class's histogram.
func (c *ComponentProfile) LifePercentile(pct int) uint64 {
	var merged ClassProfile
	for i := range c.Classes {
		for b, n := range c.Classes[i].Life {
			merged.Life[b] += n
		}
	}
	return merged.LifePercentile(pct)
}

// Profile is one workload's liveness record over its golden run: the
// versioned, deterministic artifact gefin -profile writes and the
// analyzers read.
type Profile struct {
	Workload   string
	ImageHash  [32]byte // workloads.HashImage of the compiled program
	Cycles     uint64   // golden run length
	Windows    int
	Components []ComponentProfile
}

// Component returns the named component's record, or nil.
func (p *Profile) Component(name string) *ComponentProfile {
	for i := range p.Components {
		if p.Components[i].Name == name {
			return &p.Components[i]
		}
	}
	return nil
}

// AVF returns the analytical (ACE) AVF of the named component: live
// bit-cycles over total bit-cycles. 0 for an unknown component.
func (p *Profile) AVF(comp string) float64 {
	return p.fraction(comp, (*ComponentProfile).Ace)
}

// NeverTouched returns the analytical probability that a fault injected
// uniformly in space and time lands on state that is never touched again:
// dead bit-cycles over total bit-cycles. It is the profile-side twin of
// the forensics `never-touched` fate fraction.
func (p *Profile) NeverTouched(comp string) float64 {
	return p.fraction(comp, (*ComponentProfile).Never)
}

// fraction divides the named component's sum of bit-cycles by its total
// bit-cycles. The divisor is rounded once, as an integer, so a validated
// sum (at most that integer) never reads above 1.
func (p *Profile) fraction(comp string, sum func(*ComponentProfile) uint64) float64 {
	c := p.Component(comp)
	if c == nil || p.Cycles == 0 {
		return 0
	}
	return float64(sum(c)) / float64(c.TotalBits()*p.Cycles)
}

// Key returns the profile's content address: a digest of everything the
// profile is a pure function of (format, workload, compiled image, window
// count). Any party holding the same source and configuration computes the
// same key, mirroring the checkpoint-artifact identity of PR 7.
func (p *Profile) Key() string {
	h := sha256.New()
	var ver [8]byte
	binary.LittleEndian.PutUint64(ver[:], ProfileFormat)
	h.Write(ver[:])
	h.Write([]byte(p.Workload))
	h.Write(p.ImageHash[:])
	var wb [8]byte
	binary.LittleEndian.PutUint64(wb[:], uint64(p.Windows))
	h.Write(wb[:])
	return hex.EncodeToString(h.Sum(nil))
}

// Encode serializes the profile in the sealed wire envelope (magic,
// format version, payload, sha256 trailer), so corruption anywhere in the
// bytes is caught before any field is trusted. Every slice is written in
// its stored order and the profiler fills them deterministically, so equal
// runs encode to equal bytes.
func (p *Profile) Encode() []byte {
	return wire.Seal(profileMagic, ProfileFormat, wire.Encode(p.wire))
}

// DecodeProfile parses and verifies an encoded profile. It rejects bad
// magic, an unknown format version, a content hash that does not match the
// bytes, and any structural inconsistency — a caller that gets a non-nil
// Profile back holds exactly what Encode was given.
func DecodeProfile(data []byte) (*Profile, error) {
	payload, err := wire.Open(data, profileMagic, ProfileFormat)
	if err != nil {
		return nil, fmt.Errorf("liveness: profile: %w", err)
	}
	p := &Profile{}
	if err := wire.Decode(payload, p.wire); err != nil {
		return nil, fmt.Errorf("liveness: profile: %w", err)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// wire runs the profile payload's fields through c. The decode-time
// bounds come before each allocation they size; validate checks the
// cross-field invariants once everything is read.
func (p *Profile) wire(c *wire.Codec) {
	c.String(&p.Workload)
	c.Hash(&p.ImageHash)
	c.U64(&p.Cycles)
	c.Int(&p.Windows)
	c.Check(p.Windows >= 1 && p.Windows <= MaxWindows, "liveness: profile window count %d out of range", p.Windows)
	wire.Slice(c, &p.Components, maxProfileComponents, func(c *wire.Codec, cp *ComponentProfile) {
		cp.wire(c, p.Windows)
	})
	c.Check(len(p.Components) >= 1, "liveness: profile has no components")
}

func (cp *ComponentProfile) wire(c *wire.Codec, windows int) {
	c.String(&cp.Name)
	c.Int(&cp.Rows)
	c.Int(&cp.Cols)
	c.Check(cp.Rows >= 1 && cp.Rows <= maxProfileRows && cp.Cols >= 1 && cp.Cols <= maxProfileCols,
		"liveness: component %q geometry %dx%d out of range", cp.Name, cp.Rows, cp.Cols)
	wire.Slice(c, &cp.Classes, maxProfileClasses, wireClass)
	c.Check(len(cp.Classes) >= 1, "liveness: component %q has no classes", cp.Name)
	wire.Slice(c, &cp.OccBP, windows, (*wire.Codec).U32)
	c.Check(len(cp.OccBP) == windows,
		"liveness: component %q has %d occupancy windows, want %d", cp.Name, len(cp.OccBP), windows)
	wire.Slice(c, &cp.DirtyBP, windows, (*wire.Codec).U32)
	c.Check(len(cp.DirtyBP) == 0 || len(cp.DirtyBP) == windows,
		"liveness: component %q has %d dirty windows, want 0 or %d", cp.Name, len(cp.DirtyBP), windows)
	c.Blob(&cp.RowValid)
}

func wireClass(c *wire.Codec, cl *ClassProfile) {
	c.String(&cl.Name)
	c.U64(&cl.Bits)
	c.U64(&cl.AceBitCycles)
	c.U64(&cl.NeverBitCycles)
	c.U64(&cl.Defs)
	c.U64(&cl.Reads)
	for b := range cl.Life {
		c.U64(&cl.Life[b])
	}
}

// validate checks the profile's internal consistency: class geometry sums,
// bit-cycle bounds, window series lengths and basis-point ranges.
func (p *Profile) validate() error {
	if p.Workload == "" {
		return fmt.Errorf("liveness: profile has no workload name")
	}
	if p.Cycles == 0 {
		return fmt.Errorf("liveness: profile covers zero cycles")
	}
	for i := range p.Components {
		c := &p.Components[i]
		if c.Name == "" {
			return fmt.Errorf("liveness: component %d has no name", i)
		}
		// No class is wider than total, so once total x Cycles is known
		// not to wrap, no class budget or bit-cycle sum below can either.
		total := c.TotalBits()
		hi, budget := bits.Mul64(total, p.Cycles)
		if hi != 0 {
			return fmt.Errorf("liveness: %s bit-cycle budget overflows 64 bits", c.Name)
		}
		var classBits uint64
		for j := range c.Classes {
			cl := &c.Classes[j]
			if cl.Bits > total {
				return fmt.Errorf("liveness: %s/%s has more bits than the %dx%d geometry", c.Name, cl.Name, c.Rows, c.Cols)
			}
			classBits += cl.Bits
			if limit := cl.Bits * p.Cycles; cl.AceBitCycles > limit || cl.NeverBitCycles > limit {
				return fmt.Errorf("liveness: %s/%s bit-cycles exceed the class budget", c.Name, cl.Name)
			}
		}
		if classBits != total {
			return fmt.Errorf("liveness: %s classes cover %d bits of a %dx%d geometry", c.Name, classBits, c.Rows, c.Cols)
		}
		if c.Ace() > budget || c.Never() > budget {
			return fmt.Errorf("liveness: %s bit-cycles exceed the run budget", c.Name)
		}
		for _, v := range c.OccBP {
			if v > 10000 {
				return fmt.Errorf("liveness: %s occupancy %d exceeds 10000 bp", c.Name, v)
			}
		}
		for _, v := range c.DirtyBP {
			if v > 10000 {
				return fmt.Errorf("liveness: %s dirty fraction %d exceeds 10000 bp", c.Name, v)
			}
		}
		if want := p.Windows * ((c.Rows + 7) / 8); len(c.RowValid) != want {
			return fmt.Errorf("liveness: %s row bitmap is %d bytes, want %d", c.Name, len(c.RowValid), want)
		}
	}
	return nil
}
