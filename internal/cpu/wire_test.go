package cpu

import (
	"runtime"
	"testing"

	"mbusim/internal/isa"
	"mbusim/internal/wire"
)

// TestSnapshotWireLengthBomb: a 58-byte core snapshot that claims a
// 1<<20-entry ROB but carries no entries fails as too long for its input
// before the ROB is allocated. The artifact hash is not a MAC, so such
// bytes can reach the decoder resealed.
func TestSnapshotWireLengthBomb(t *testing.T) {
	data := wire.Encode(func(c *wire.Codec) {
		var regs, robLen int = 0, 1 << 20
		c.Int(&regs)
		var maps [2 * isa.NumArch]uint8 // rename and architectural maps
		for i := range maps {
			c.U8(&maps[i])
		}
		var freeList []byte
		c.Blob(&freeList)
		c.Int(&robLen)
	})
	if len(data) != 58 {
		t.Fatalf("bomb is %d bytes, want 58", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := wire.Decode(data, new(Snapshot).Wire)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("length bomb decoded cleanly")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("length bomb allocated %d bytes before failing (%v)", alloc, err)
	}
}
