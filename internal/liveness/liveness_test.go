package liveness

import (
	"testing"

	"mbusim/internal/cache"
	"mbusim/internal/cpu"
	"mbusim/internal/forensics"
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

func TestLifeBucket(t *testing.T) {
	cases := []struct {
		d    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 38, LifeBuckets - 1}, {^uint64(0), LifeBuckets - 1},
	}
	for _, c := range cases {
		if got := lifeBucket(c.d); got != c.want {
			t.Errorf("lifeBucket(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestCellAccounting pins the ACE and never-touched arithmetic on one
// 8-bit cell: a generation's ACE interval is write..last-read, the
// lifetime histogram records write..first-read, and the dead tail after
// the last event of any kind is never-touched.
func TestCellAccounting(t *testing.T) {
	var cyc uint64
	tr := &compTracker{
		now:     func() uint64 { return cyc },
		classes: []ClassProfile{{Name: "data", Bits: 8}},
		cells:   []cell{{class: 0, width: 8}},
	}
	cyc = 10
	tr.define(0)
	cyc = 15
	tr.consume(0) // first read: lifetime 5
	cyc = 20
	tr.consume(0) // extends the ACE interval to 10..20
	tr.finish(100)

	cl := &tr.classes[0]
	if cl.Defs != 1 || cl.Reads != 1 {
		t.Fatalf("defs=%d reads=%d, want 1/1", cl.Defs, cl.Reads)
	}
	if want := uint64((20 - 10) * 8); cl.AceBitCycles != want {
		t.Errorf("ace = %d, want %d", cl.AceBitCycles, want)
	}
	if want := uint64((100 - 20) * 8); cl.NeverBitCycles != want {
		t.Errorf("never = %d, want %d", cl.NeverBitCycles, want)
	}
	if cl.Life[lifeBucket(5)] != 1 {
		t.Errorf("lifetime 5 not recorded in bucket %d: %v", lifeBucket(5), cl.Life)
	}
}

// TestCellNeverReadIsDead: a write with no subsequent read earns no ACE
// credit, and the dead tail starts at the write.
func TestCellNeverReadIsDead(t *testing.T) {
	var cyc uint64
	tr := &compTracker{
		now:     func() uint64 { return cyc },
		classes: []ClassProfile{{Name: "data", Bits: 1}},
		cells:   []cell{{class: 0, width: 1}},
	}
	cyc = 30
	tr.define(0)
	tr.finish(100)
	cl := &tr.classes[0]
	if cl.AceBitCycles != 0 {
		t.Errorf("ace = %d for a never-read write, want 0", cl.AceBitCycles)
	}
	if want := uint64(100 - 30); cl.NeverBitCycles != want {
		t.Errorf("never = %d, want %d", cl.NeverBitCycles, want)
	}
	// A cell with no event at all is dead for the whole run.
	tr2 := &compTracker{
		now:     func() uint64 { return 0 },
		classes: []ClassProfile{{Name: "data", Bits: 1}},
		cells:   []cell{{class: 0, width: 1}},
	}
	tr2.finish(100)
	if got := tr2.classes[0].NeverBitCycles; got != 100 {
		t.Errorf("untouched cell never = %d, want 100", got)
	}
}

// TestRedefineBanksPreviousGeneration: overwriting a read value closes its
// ACE interval; overwriting an unread one discards it.
func TestRedefineBanksPreviousGeneration(t *testing.T) {
	var cyc uint64
	tr := &compTracker{
		now:     func() uint64 { return cyc },
		classes: []ClassProfile{{Name: "data", Bits: 1}},
		cells:   []cell{{class: 0, width: 1}},
	}
	cyc = 10
	tr.define(0)
	cyc = 14
	tr.consume(0)
	cyc = 25
	tr.define(0) // banks 10..14
	cyc = 40
	tr.define(0) // generation at 25 was never read: no ACE
	tr.finish(50)
	cl := &tr.classes[0]
	if want := uint64(14 - 10); cl.AceBitCycles != want {
		t.Errorf("ace = %d, want %d", cl.AceBitCycles, want)
	}
	if want := uint64(50 - 40); cl.NeverBitCycles != want {
		t.Errorf("never = %d, want %d", cl.NeverBitCycles, want)
	}
}

// TestCacheTrackerFanout drives a real cache under a tracker and checks
// the probe fan-out books the forensics event semantics: a lookup
// consults valid+tag of every way in the set, a fill defines the whole
// line, reads consume data bytes.
func TestCacheTrackerFanout(t *testing.T) {
	c := testCache()
	var cyc uint64
	tr := newCompTracker(c, func() uint64 { return cyc })

	var buf [4]byte
	cyc = 5
	c.Read(0x0000, buf[:]) // miss: lookup, evict, fill, then data read
	cyc = 9
	c.Read(0x0000, buf[:]) // hit: lookup + data read
	tr.finish(20)

	classByName := func(name string) *ClassProfile {
		for i := range tr.classes {
			if tr.classes[i].Name == name {
				return &tr.classes[i]
			}
		}
		t.Fatalf("no class %q", name)
		return nil
	}
	valid, data := classByName("valid"), classByName("data")
	// Two lookups x 2 ways = 4 valid-bit consume events; the fill's define
	// resets the filled way's generation between them.
	if valid.Reads == 0 || data.Reads == 0 {
		t.Fatalf("lookup/read fan-out not recorded: valid.Reads=%d data.Reads=%d", valid.Reads, data.Reads)
	}
	// The fill defines 16 data-byte cells exactly once.
	if data.Defs != 16 {
		t.Errorf("data defs = %d, want 16 (one fill)", data.Defs)
	}
	// The filled line's data was read at cycle 5 (same cycle as the fill)
	// and again at 9: ACE interval 5..9 on 4 bytes read, each 8 bits wide.
	if want := uint64((9 - 5) * 8 * 4); data.AceBitCycles != want {
		t.Errorf("data ace = %d, want %d", data.AceBitCycles, want)
	}
	total := uint64(0)
	for i := range tr.classes {
		total += tr.classes[i].Bits
	}
	if want := uint64(tr.g.Rows) * uint64(tr.g.Cols); total != want {
		t.Errorf("class bits sum = %d, want rows*cols = %d", total, want)
	}
}

// TestTLBTrackerFanout: a lookup CAM-compares every entry and consumes the
// hit entry's payload; an insert defines all three cells of its row.
func TestTLBTrackerFanout(t *testing.T) {
	tb := tlb.New("DTLB", 8)
	var cyc uint64
	tr := newCompTracker(tb, func() uint64 { return cyc })

	cyc = 3
	tb.Insert(5, 9, true, true)
	cyc = 7
	if tr9, ok := tb.Lookup(5); !ok || tr9.PFN != 9 {
		t.Fatalf("lookup(5) = %+v,%v", tr9, ok)
	}
	tr.finish(10)

	cam, pay := &tr.classes[0], &tr.classes[1]
	if cam.Defs != 1 || pay.Defs != 1 {
		t.Fatalf("insert defs cam=%d payload=%d, want 1/1", cam.Defs, pay.Defs)
	}
	// The lookup CAM-compared all 8 entries, so every entry's state is ACE
	// up to cycle 7: the inserted one from its insert at 3, the other seven
	// from their reset state at 0 (a flip of an invalid entry's CAM bits
	// before the compare could produce a false hit).
	camW := uint64(tr.cells[0].width)
	if want := (7-3)*camW + 7*(7-0)*camW; cam.AceBitCycles != want {
		t.Errorf("cam ace = %d, want %d", cam.AceBitCycles, want)
	}
	if want := uint64((7 - 3) * int(tr.cells[tr.g.Rows].width)); pay.AceBitCycles != want {
		t.Errorf("payload ace = %d, want %d", pay.AceBitCycles, want)
	}
}

// TestRegTrackerFanout: writes define data+ready, reads consume them
// separately, alloc redefines only the ready bit.
func TestRegTrackerFanout(t *testing.T) {
	rf := cpu.NewRegFile(8)
	var cyc uint64
	tr := newCompTracker(rf, func() uint64 { return cyc })

	cyc = 2
	rf.Write(3, 42)
	cyc = 6
	rf.Val(3)
	cyc = 8
	rf.Alloc(3) // ready redefined; the stale value keeps its generation
	tr.finish(10)

	data, ready := &tr.classes[0], &tr.classes[1]
	if want := uint64((6 - 2) * 32); data.AceBitCycles != want {
		t.Errorf("data ace = %d, want %d", data.AceBitCycles, want)
	}
	if data.Defs != 1 || ready.Defs != 2 {
		t.Errorf("defs data=%d ready=%d, want 1/2", data.Defs, ready.Defs)
	}
}

// TestDetachedPathAllocFree pins the profiling-off cost, matching the
// forensics disabled-path guarantee: once Finish detaches the probes, the
// structure hot paths must not allocate — profiling off costs one nil
// pointer compare per probe site.
func TestDetachedPathAllocFree(t *testing.T) {
	c := testCache()
	tb := tlb.New("DTLB", 8)
	rf := cpu.NewRegFile(8)
	var cyc uint64
	for _, target := range []any{c, tb, rf} {
		newCompTracker(target, func() uint64 { return cyc }).detach()
	}
	var buf [4]byte
	c.Read(0x000, buf[:]) // warm up
	c.Write(0x004, buf[:])
	tb.Insert(5, 9, true, true)

	allocs := testing.AllocsPerRun(200, func() {
		c.Read(0x000, buf[:])
		c.Write(0x004, buf[:])
		c.Read(0x100, buf[:])
		tb.Lookup(5)
		tb.Lookup(999)
		tb.Insert(6, 10, true, true)
		rf.Ready(3)
		rf.Val(3)
		rf.Alloc(3)
		rf.Write(3, 42)
	})
	if allocs != 0 {
		t.Errorf("detached-path allocations = %v per run; want 0", allocs)
	}
}

// TestAttachedPathAllocFree: both reducers' event paths are
// allocation-free — the profiler's per-event cost is pointer arithmetic
// into preallocated cell and class tables, the fault tracker's a scan of
// its mask cells.
func TestAttachedPathAllocFree(t *testing.T) {
	var cyc uint64
	now := func() uint64 { return cyc }
	for _, reducer := range []string{"liveness", "forensics"} {
		c := testCache()
		tb := tlb.New("DTLB", 8)
		rf := cpu.NewRegFile(8)
		var buf [4]byte
		c.Read(0x000, buf[:]) // warm up
		c.Write(0x004, buf[:])
		tb.Insert(5, 9, true, true)
		if reducer == "liveness" {
			for _, target := range []any{c, tb, rf} {
				newCompTracker(target, now)
			}
		} else {
			// Bits the loop below touches: data byte 0 and valid of row 0,
			// the valid (CAM) bit of entry 0, register 3's value and ready.
			for target, mask := range map[any][]forensics.BitCell{
				c:  {{Row: 0, Col: c.StateBits()}, {Row: 0, Col: 0}},
				tb: {{Row: 0, Col: 31}},
				rf: {{Row: 3, Col: 0}, {Row: 3, Col: cpu.ReadyCol}},
			} {
				if err := forensics.NewTracker(now).Attach(target, mask); err != nil {
					t.Fatal(err)
				}
			}
		}

		allocs := testing.AllocsPerRun(200, func() {
			cyc++
			c.Read(0x000, buf[:])
			c.Write(0x004, buf[:])
			c.Read(0x100, buf[:])
			tb.Lookup(5)
			tb.Lookup(999)
			tb.Insert(6, 10, true, true)
			rf.Ready(3)
			rf.Val(3)
			rf.Alloc(3)
			rf.Write(3, 42)
		})
		if allocs != 0 {
			t.Errorf("%s attached-path allocations = %v per run; want 0", reducer, allocs)
		}
	}
}
