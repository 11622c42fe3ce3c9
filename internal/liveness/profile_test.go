package liveness

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"strings"
	"testing"

	"mbusim/internal/wire"
)

// testProfile builds a small, internally consistent profile by hand.
func testProfile() *Profile {
	p := &Profile{
		Workload: "toy",
		Cycles:   1000,
		Windows:  4,
	}
	p.ImageHash[0] = 0xab
	c := ComponentProfile{
		Name: "L1D", Rows: 8, Cols: 10,
		Classes: []ClassProfile{
			{Name: "valid", Bits: 8, AceBitCycles: 100, NeverBitCycles: 200, Defs: 3, Reads: 2},
			{Name: "data", Bits: 72, AceBitCycles: 4000, NeverBitCycles: 60000, Defs: 9, Reads: 7},
		},
		OccBP:    []uint32{0, 2500, 5000, 10000},
		DirtyBP:  []uint32{0, 0, 1250, 1250},
		RowValid: make([]byte, 4*1), // 4 windows x ceil(8/8) bytes
	}
	c.Classes[0].Life[3] = 2
	c.Classes[1].Life[0] = 5
	c.Classes[1].Life[7] = 2
	c.RowValid[2] = 0b0000_0101 // rows 0 and 2 valid in window 2
	p.Components = append(p.Components, c)
	return p
}

func TestProfileRoundTrip(t *testing.T) {
	p := testProfile()
	enc := p.Encode()
	got, err := DecodeProfile(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v", p, got)
	}
	if enc2 := p.Encode(); !reflect.DeepEqual(enc, enc2) {
		t.Fatal("Encode is not deterministic")
	}
	if got.Key() != p.Key() {
		t.Fatal("Key changed across round trip")
	}
}

func TestProfileDerived(t *testing.T) {
	p := testProfile()
	c := p.Component("L1D")
	if c == nil || p.Component("nope") != nil {
		t.Fatal("Component lookup broken")
	}
	if got, want := c.TotalBits(), uint64(80); got != want {
		t.Fatalf("TotalBits = %d, want %d", got, want)
	}
	if got, want := p.AVF("L1D"), float64(4100)/float64(80*1000); got != want {
		t.Errorf("AVF = %v, want %v", got, want)
	}
	if got, want := p.NeverTouched("L1D"), float64(60200)/float64(80*1000); got != want {
		t.Errorf("NeverTouched = %v, want %v", got, want)
	}
	if !c.RowValidAt(2, 0) || c.RowValidAt(2, 1) || !c.RowValidAt(2, 2) {
		t.Error("RowValidAt does not match the bitmap")
	}
	// valid class: 2 lifetimes, both in bucket 3 (upper edge 8).
	if got := c.Classes[0].LifePercentile(50); got != 8 {
		t.Errorf("valid p50 = %d, want 8", got)
	}
	// data class: 5 same-cycle (bucket 0) + 2 in bucket 7; p50 lands in
	// bucket 0, p99 in bucket 7 (upper edge 128).
	if got := c.Classes[1].LifePercentile(50); got != 0 {
		t.Errorf("data p50 = %d, want 0", got)
	}
	if got := c.Classes[1].LifePercentile(99); got != 128 {
		t.Errorf("data p99 = %d, want 128", got)
	}
}

// TestDecodeRejectsCorruption drives every corruption class through the
// decoder: each must come back as a one-line error, never a panic or a
// silently wrong profile.
func TestDecodeRejectsCorruption(t *testing.T) {
	enc := testProfile().Encode()
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"empty", func(b []byte) []byte { return nil }, "truncated"},
		{"truncated header", func(b []byte) []byte { return b[:10] }, "truncated"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-40] }, "hash mismatch"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "magic"},
		{"future version", func(b []byte) []byte { b[4] = 99; return b }, "format"},
		{"payload bit flip", func(b []byte) []byte { b[20] ^= 0x40; return b }, "hash mismatch"},
		{"trailer bit flip", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, "hash mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), enc...))
			p, err := DecodeProfile(data)
			if err == nil {
				t.Fatalf("decoded a %s profile: %+v", tc.name, p)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestDecodeRejectsInconsistency re-encodes structurally broken profiles
// (valid container, invalid content) and checks validation catches them.
func TestDecodeRejectsInconsistency(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(p *Profile)
		wantSub string
	}{
		{"no workload", func(p *Profile) { p.Workload = "" }, "workload"},
		{"zero cycles", func(p *Profile) { p.Cycles = 0 }, "zero cycles"},
		{"class bits mismatch", func(p *Profile) { p.Components[0].Classes[0].Bits = 9 }, "classes cover"},
		{"ace over budget", func(p *Profile) { p.Components[0].Classes[0].AceBitCycles = 1 << 40 }, "budget"},
		{"occupancy over 100%", func(p *Profile) { p.Components[0].OccBP[1] = 10001 }, "10000"},
		{"bitmap length", func(p *Profile) { p.Components[0].RowValid = p.Components[0].RowValid[:3] }, "bitmap"},
		// Class widths whose uint64 sum wraps to Rows*Cols, and whose
		// per-class budgets wrap too: 2^63 x 2 = 0 and (2^63+80) x 2 = 160.
		{"class wider than geometry", func(p *Profile) {
			p.Cycles = 2
			p.Components[0].Classes = []ClassProfile{
				{Name: "valid", Bits: 1 << 63},
				{Name: "data", Bits: 1<<63 + 80, AceBitCycles: 160},
			}
		}, "more bits than"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testProfile()
			tc.mutate(p)
			got, err := DecodeProfile(p.Encode())
			if err == nil {
				t.Fatalf("decoded an inconsistent profile: %+v", got)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// frameProfile wraps a payload in the sealed envelope Encode writes.
func frameProfile(payload []byte) []byte {
	return wire.Seal(profileMagic, ProfileFormat, payload)
}

// FuzzDecodeProfile fuzzes the profile payload behind a valid container,
// so mutations reach the structural checks instead of dying at the hash.
// Every accepted profile must re-encode to the same bytes and report
// fractions in [0, 1].
func FuzzDecodeProfile(f *testing.F) {
	header := len(profileMagic) + 8
	noDirty := testProfile()
	noDirty.Components[0].DirtyBP = nil
	for _, p := range []*Profile{testProfile(), noDirty} {
		enc := p.Encode()
		f.Add(enc[header : len(enc)-sha256.Size])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		data := frameProfile(payload)
		p, err := DecodeProfile(data)
		if err != nil {
			return
		}
		if !bytes.Equal(p.Encode(), data) {
			t.Fatal("accepted profile does not re-encode to its own bytes")
		}
		for _, c := range p.Components {
			avf, never := p.AVF(c.Name), p.NeverTouched(c.Name)
			if !(avf >= 0 && avf <= 1 && never >= 0 && never <= 1) {
				t.Fatalf("%s: AVF %v, NeverTouched %v outside [0, 1]", c.Name, avf, never)
			}
		}
	})
}
