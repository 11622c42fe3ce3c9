package forensics

import (
	"testing"

	"mbusim/internal/cache"
	"mbusim/internal/cpu"
	"mbusim/internal/mem"
	"mbusim/internal/tlb"
)

// testCache returns a small cache (8 sets x 2 ways, 16 B lines) over a
// flat RAM.
func testCache() *cache.Cache {
	return cache.New(cache.Config{
		Name: "L1D", Size: 256, Ways: 2, LineSize: 16, Latency: 1, PABits: 16,
	}, mem.NewRAM(1<<16))
}

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		err  bool
	}{
		{"off", ModeOff, false}, {"false", ModeOff, false}, {"", ModeOff, false},
		{"fast", ModeFast, false}, {"true", ModeFast, false}, {"on", ModeFast, false},
		{"full", ModeFull, false},
		{"bogus", ModeOff, true},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
	for _, m := range []Mode{ModeOff, ModeFast, ModeFull} {
		back, err := ParseMode(m.String())
		if err != nil || back != m {
			t.Errorf("ParseMode(%v.String()) = %v, %v", m, back, err)
		}
	}
}

func TestFateLabelsStable(t *testing.T) {
	want := map[Fate]string{
		FateNeverTouched: "never-touched",
		FateOverwritten:  "overwritten",
		FateRefilled:     "refilled",
		FateReadMasked:   "read-then-masked",
		FateReadSDC:      "read-then-sdc",
		FateWrittenBack:  "written-back",
		FateDiverged:     "diverged",
	}
	if len(Fates()) != int(NumFates) || len(want) != int(NumFates) {
		t.Fatalf("fate enumeration out of sync: %d fates", len(Fates()))
	}
	seen := map[string]bool{}
	for _, f := range Fates() {
		if f.Label() != want[f] {
			t.Errorf("fate %d label = %q, want %q (wire names are frozen)", f, f.Label(), want[f])
		}
		if seen[f.Label()] {
			t.Errorf("duplicate fate label %q", f.Label())
		}
		seen[f.Label()] = true
	}
}

func TestAttachUnsupportedTarget(t *testing.T) {
	cyc := uint64(0)
	tr := NewTracker(func() uint64 { return cyc })
	if err := tr.Attach(42, nil); err == nil {
		t.Fatal("Attach(int) succeeded; want error")
	}
}

// track arms a tracker over the given mask cells with a settable clock.
func track(t *testing.T, target any, cyc *uint64, cells ...BitCell) *Tracker {
	t.Helper()
	tr := NewTracker(func() uint64 { return *cyc })
	if err := tr.Attach(target, cells); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCacheDataReadFate(t *testing.T) {
	c := testCache()
	var buf [4]byte
	c.Read(0x000, buf[:]) // warm row 0 of set 0
	cyc := uint64(100)
	// Flip the first data bit of row 0 (byte 0).
	col := c.StateBits()
	c.FlipBit(0, col)
	tr := track(t, c, &cyc, BitCell{Row: 0, Col: col})

	cyc = 140
	c.Read(0x000, buf[:]) // corrupted byte enters the datapath

	if r := tr.Resolve(false); r.Fate != FateReadSDC || r.FirstTouchLat != 40 {
		t.Errorf("Resolve(false) = %+v; want read-then-sdc at lat 40", r)
	}
	if r := tr.Resolve(true); r.Fate != FateReadMasked {
		t.Errorf("Resolve(true).Fate = %v; want read-then-masked", r.Fate)
	}
}

func TestCacheMetadataConsultedByLookup(t *testing.T) {
	// A tag flip in set 0 must count as read on ANY access probing set 0:
	// the parallel tag compare consults every way. This is what guarantees
	// an SDC caused by a wrong-way hit still resolves to read-then-sdc.
	c := testCache()
	var buf [4]byte
	c.Read(0x000, buf[:])
	cyc := uint64(10)
	c.FlipBit(0, 2) // lowest tag bit of row 0
	tr := track(t, c, &cyc, BitCell{Row: 0, Col: 2})

	cyc = 25
	c.Read(0x008, buf[:]) // same set, any tag: probes set 0

	if r := tr.Resolve(false); r.Fate != FateReadSDC || r.FirstTouchLat != 15 {
		t.Errorf("Resolve = %+v; want read-then-sdc at lat 15", r)
	}
}

func TestCacheOverwrittenFate(t *testing.T) {
	c := testCache()
	var buf [4]byte
	c.Read(0x000, buf[:])
	cyc := uint64(5)
	col := c.StateBits() // data byte 0
	c.FlipBit(0, col)
	tr := track(t, c, &cyc, BitCell{Row: 0, Col: col})

	cyc = 9
	c.Write(0x000, buf[:]) // store rewrites bytes 0..3 before any read

	r := tr.Resolve(true)
	if r.Fate != FateOverwritten || r.FirstTouchLat != 4 {
		t.Errorf("Resolve = %+v; want overwritten at lat 4", r)
	}
}

func TestCacheRefilledFate(t *testing.T) {
	// Corrupt data in a CLEAN line, then force its eviction: the line is
	// dropped and refilled, discarding the corruption — the paper's
	// clean-line masking mechanism.
	c := testCache()
	var buf [4]byte
	c.Read(0x000, buf[:]) // row 0, set 0
	c.Read(0x100, buf[:]) // row 1, set 0 (second way; set = pa>>4 & 7)
	cyc := uint64(50)
	col := c.StateBits()
	c.FlipBit(0, col)
	tr := track(t, c, &cyc, BitCell{Row: 0, Col: col})

	cyc = 60
	c.Read(0x200, buf[:]) // third tag in set 0: evicts LRU row 0, clean, refill

	r := tr.Resolve(true)
	if r.Fate != FateRefilled || r.FirstTouchLat != 10 {
		t.Errorf("Resolve = %+v; want refilled at lat 10", r)
	}
}

func TestCacheWrittenBackFate(t *testing.T) {
	// Corrupt a data byte of a DIRTY line outside the stored bytes, then
	// evict it: the corruption escapes to the next level in the writeback —
	// the paper's dirty-line latent-SDC mechanism.
	c := testCache()
	var buf [4]byte
	c.Write(0x000, buf[:]) // row 0 dirty (bytes 0..3 written)
	c.Read(0x100, buf[:])  // row 1, set 0
	cyc := uint64(7)
	col := c.StateBits() + 8*8 // data byte 8: untouched by the store
	c.FlipBit(0, col)
	tr := track(t, c, &cyc, BitCell{Row: 0, Col: col})

	cyc = 19
	c.Read(0x200, buf[:]) // evicts dirty row 0 -> writeback

	r := tr.Resolve(false)
	if r.Fate != FateWrittenBack || r.FirstTouchLat != 12 {
		t.Errorf("Resolve = %+v; want written-back at lat 12", r)
	}
}

func TestCacheNeverTouchedFate(t *testing.T) {
	c := testCache()
	var buf [4]byte
	c.Read(0x000, buf[:])
	cyc := uint64(3)
	// Corrupt a data bit in set 7 (row 14), then only ever touch set 0.
	col := c.StateBits()
	c.FlipBit(14, col)
	tr := track(t, c, &cyc, BitCell{Row: 14, Col: col})

	cyc = 30
	c.Read(0x000, buf[:])
	c.Write(0x004, buf[:])

	r := tr.Resolve(true)
	if r.Fate != FateNeverTouched || r.FirstTouchLat != -1 {
		t.Errorf("Resolve = %+v; want never-touched at lat -1", r)
	}
}

func TestPartialClearResolvesToClearFate(t *testing.T) {
	// Two corrupted bits; only one is refilled, the other sits in dead
	// state. The sample resolves to the clear-based fate (never-touched is
	// reserved for zero events), keeping FirstTouchLat == -1 iff
	// never-touched.
	c := testCache()
	var buf [4]byte
	c.Read(0x000, buf[:]) // row 0, set 0
	c.Read(0x100, buf[:]) // row 1, set 0
	cyc := uint64(40)
	col := c.StateBits()
	c.FlipBit(0, col)  // will be refilled
	c.FlipBit(14, col) // set 7: never accessed
	tr := track(t, c, &cyc, BitCell{Row: 0, Col: col}, BitCell{Row: 14, Col: col})

	cyc = 55
	c.Read(0x200, buf[:]) // evict clean row 0

	r := tr.Resolve(true)
	if r.Fate != FateRefilled || r.FirstTouchLat != 15 {
		t.Errorf("Resolve = %+v; want refilled at lat 15", r)
	}
}

func TestReadBeatsWritebackOnTie(t *testing.T) {
	c := testCache()
	var buf [4]byte
	c.Write(0x000, buf[:])
	cyc := uint64(1)
	col := c.StateBits() + 8*8
	c.FlipBit(0, col)
	tr := track(t, c, &cyc, BitCell{Row: 0, Col: col})

	cyc = 2
	var wide [16]byte
	c.Read(0x000, wide[:]) // reads the corrupted byte (read event)
	c.Read(0x100, buf[:])
	c.Read(0x200, buf[:]) // evicts dirty row 0 -> writeback, same tracker

	r := tr.Resolve(false)
	if r.Fate != FateReadSDC {
		t.Errorf("Resolve.Fate = %v; want read-then-sdc (read precedes writeback)", r.Fate)
	}
}

func TestTLBFates(t *testing.T) {
	const camCol = 31 // valid bit: CAM-compared by every lookup
	newTLB := func() *tlb.TLB {
		tb := tlb.New("DTLB", 4)
		tb.Insert(5, 9, true, true)  // row 0
		tb.Insert(6, 10, true, true) // row 1
		return tb
	}

	t.Run("cam-read-on-any-lookup", func(t *testing.T) {
		tb := newTLB()
		cyc := uint64(10)
		tb.FlipBit(2, camCol) // invalid entry's valid bit: still CAM-compared
		tr := track(t, tb, &cyc, BitCell{Row: 2, Col: camCol})
		cyc = 12
		tb.Lookup(1234) // miss; CAM still consulted every entry
		if r := tr.Resolve(false); r.Fate != FateReadSDC || r.FirstTouchLat != 2 {
			t.Errorf("Resolve = %+v; want read-then-sdc at lat 2", r)
		}
	})

	t.Run("payload-read-only-on-hit", func(t *testing.T) {
		tb := newTLB()
		cyc := uint64(0)
		tb.FlipBit(0, 1) // PFN bit of row 0: payload
		tr := track(t, tb, &cyc, BitCell{Row: 0, Col: 1})
		tb.Lookup(1234) // miss: payload not consulted
		if r := tr.Resolve(true); r.Fate != FateNeverTouched {
			t.Fatalf("after miss: %+v; want never-touched", r)
		}
		tb.Lookup(6) // hits row 1: row 0 payload still untouched
		if r := tr.Resolve(true); r.Fate != FateNeverTouched {
			t.Fatalf("after other-row hit: %+v; want never-touched", r)
		}
		tb.Lookup(5) // hits row 0: corrupted PFN enters the datapath
		if r := tr.Resolve(true); r.Fate != FateReadMasked {
			t.Errorf("after hit: %+v; want read-then-masked", r)
		}
	})

	t.Run("insert-overwrites", func(t *testing.T) {
		tb := newTLB()
		cyc := uint64(0)
		tb.FlipBit(2, 1) // payload bit of row 2 = next round-robin victim
		tr := track(t, tb, &cyc, BitCell{Row: 2, Col: 1})
		tb.Insert(7, 11, true, true) // lands on row 2
		if r := tr.Resolve(true); r.Fate != FateOverwritten {
			t.Errorf("Resolve = %+v; want overwritten", r)
		}
	})

	t.Run("invalidate-overwrites", func(t *testing.T) {
		tb := newTLB()
		cyc := uint64(0)
		tb.FlipBit(3, camCol)
		tr := track(t, tb, &cyc, BitCell{Row: 3, Col: camCol})
		tb.Invalidate()
		if r := tr.Resolve(true); r.Fate != FateOverwritten {
			t.Errorf("Resolve = %+v; want overwritten", r)
		}
	})

	t.Run("spare-never-consulted", func(t *testing.T) {
		tb := newTLB()
		cyc := uint64(0)
		tb.FlipBit(0, 0) // spare column
		tr := track(t, tb, &cyc, BitCell{Row: 0, Col: 0})
		tb.Lookup(5)
		tb.Lookup(1234)
		if r := tr.Resolve(true); r.Fate != FateNeverTouched {
			t.Errorf("Resolve = %+v; want never-touched", r)
		}
	})
}

func TestRegFileFates(t *testing.T) {
	t.Run("data-read", func(t *testing.T) {
		rf := cpu.NewRegFile(8)
		cyc := uint64(20)
		rf.FlipBit(3, 0)
		tr := track(t, rf, &cyc, BitCell{Row: 3, Col: 0})
		cyc = 23
		rf.Val(3)
		if r := tr.Resolve(false); r.Fate != FateReadSDC || r.FirstTouchLat != 3 {
			t.Errorf("Resolve = %+v; want read-then-sdc at lat 3", r)
		}
	})

	t.Run("data-overwritten", func(t *testing.T) {
		rf := cpu.NewRegFile(8)
		cyc := uint64(0)
		rf.FlipBit(3, 0)
		tr := track(t, rf, &cyc, BitCell{Row: 3, Col: 0})
		rf.Val(4) // different register: not a read of row 3
		rf.Write(3, 0xDEAD)
		if r := tr.Resolve(true); r.Fate != FateOverwritten {
			t.Errorf("Resolve = %+v; want overwritten", r)
		}
	})

	t.Run("ready-read-by-issue", func(t *testing.T) {
		rf := cpu.NewRegFile(8)
		cyc := uint64(0)
		rf.FlipBit(5, cpu.ReadyCol)
		tr := track(t, rf, &cyc, BitCell{Row: 5, Col: cpu.ReadyCol})
		rf.Val(5) // value read does NOT consult the ready bit
		if r := tr.Resolve(true); r.Fate != FateNeverTouched {
			t.Fatalf("after Val: %+v; want never-touched", r)
		}
		rf.Ready(5)
		if r := tr.Resolve(false); r.Fate != FateReadSDC {
			t.Errorf("after Ready: %+v; want read-then-sdc", r)
		}
	})

	t.Run("alloc-rewrites-ready-not-data", func(t *testing.T) {
		rf := cpu.NewRegFile(8)
		cyc := uint64(0)
		rf.FlipBit(5, cpu.ReadyCol)
		rf.FlipBit(5, 0)
		tr := track(t, rf, &cyc,
			BitCell{Row: 5, Col: cpu.ReadyCol}, BitCell{Row: 5, Col: 0})
		rf.Alloc(5) // clears the ready bit; the stale data bit survives
		if r := tr.Resolve(true); r.Fate != FateOverwritten {
			t.Fatalf("after Alloc: %+v; want overwritten (ready bit cleared)", r)
		}
		rf.Val(5) // the surviving corrupted data bit is read
		if r := tr.Resolve(false); r.Fate != FateReadSDC {
			t.Errorf("after Val: %+v; want read-then-sdc", r)
		}
	})
}

func TestDivergedFate(t *testing.T) {
	c := testCache()
	cyc := uint64(100)
	col := c.StateBits()
	c.FlipBit(0, col)
	tr := track(t, c, &cyc, BitCell{Row: 0, Col: col})
	cyc = 250
	tr.MarkDiverged()
	cyc = 300
	tr.MarkDiverged() // second call must not move the recorded cycle
	if !tr.Diverged() {
		t.Fatal("Diverged() = false after MarkDiverged")
	}
	r := tr.Resolve(false)
	if r.Fate != FateDiverged || r.DivergeCycle != 250 {
		t.Errorf("Resolve = %+v; want diverged at cycle 250", r)
	}
}

func TestCycleZeroClamped(t *testing.T) {
	// Events at cycle 0 must not alias the "never happened" sentinel.
	rf := cpu.NewRegFile(4)
	cyc := uint64(0)
	rf.FlipBit(1, 0)
	tr := track(t, rf, &cyc, BitCell{Row: 1, Col: 0})
	rf.Val(1) // read at cycle 0
	if r := tr.Resolve(false); r.Fate != FateReadSDC {
		t.Errorf("Resolve = %+v; want read-then-sdc even at cycle 0", r)
	}
}

// TestDisabledPathAllocFree pins the probe-off cost of every hooked
// component path, for structures never probed and for structures whose
// probe was detached again (a forensics sample's end, a profiler's
// Finish): with a nil probe, the hot paths must not allocate.
func TestDisabledPathAllocFree(t *testing.T) {
	c := testCache()
	tb := tlb.New("DTLB", 8)
	tb.Insert(5, 9, true, true)
	rf := cpu.NewRegFile(8)
	for _, target := range []any{c, tb, rf} {
		tr := NewTracker(func() uint64 { return 0 })
		if err := tr.Attach(target, []BitCell{{Row: 0, Col: 0}}); err != nil {
			t.Fatal(err)
		}
		tr.Detach()
	}
	var buf [4]byte
	c.Read(0x000, buf[:]) // warm up
	c.Write(0x004, buf[:])

	allocs := testing.AllocsPerRun(200, func() {
		c.Read(0x000, buf[:])
		c.Write(0x004, buf[:])
		c.Read(0x100, buf[:]) // alternates ways; exercises fill/evict
		tb.Lookup(5)
		tb.Lookup(999)
		tb.Insert(6, 10, true, true)
		rf.Ready(3)
		rf.Val(3)
		rf.Alloc(3)
		rf.Write(3, 42)
	})
	if allocs != 0 {
		t.Errorf("disabled-path allocations = %v per run; want 0", allocs)
	}
}
