package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeResult builds a synthetic cell result without running a campaign.
func fakeResult(comp, wl string, faults, samples int, seed uint64) *Result {
	r := &Result{
		Spec: Spec{
			Workload: wl, Component: comp, Faults: faults,
			Samples: samples, Seed: seed,
			Cluster: DefaultCluster, TimeoutFactor: 4,
		},
		GoldenCycles: 22_500,
		TargetBits:   1024,
	}
	r.Counts[EffectMasked] = samples - 2
	r.Counts[EffectSDC] = 1
	r.Counts[EffectCrash] = 1
	return r
}

func TestResultSetRoundTripExtensions(t *testing.T) {
	rs := NewResultSet()
	// Cover the extension fields: a protected cell with a custom cluster,
	// alongside a plain one.
	prot := fakeResult(CompL1D, "sha", 2, 40, 7)
	prot.Spec.Protect = Protection{Kind: ProtectSECDED, Interleave: 4}
	prot.Spec.Cluster = ClusterSpec{Rows: 2, Cols: 4}
	prot.Spec.ForceSpanning = true
	rs.Add(prot)
	rs.Add(fakeResult(CompDTLB, "CRC32", 1, 60, 9))

	data, err := rs.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back := NewResultSet()
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != 2 {
		t.Fatalf("round-trip lost cells: %d", len(back.Cells))
	}
	got, err := back.Get(CompL1D, "sha", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.Protect != prot.Spec.Protect {
		t.Fatalf("Protect lost: %+v", got.Spec.Protect)
	}
	if got.Spec.Cluster != prot.Spec.Cluster || !got.Spec.ForceSpanning {
		t.Fatalf("Cluster/ForceSpanning lost: %+v", got.Spec)
	}
	if got.TargetBits != 1024 || got.GoldenCycles != 22_500 {
		t.Fatalf("metadata lost: %+v", got)
	}
	// Round-tripping again is byte-stable (sorted canonical encode).
	data2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("canonical encode not byte-stable across a round trip")
	}
}

// TestLegacyTargetBitsFallback: files written before TargetBits existed
// decode with TargetBits zero, and population() must fall back to the old
// 1e6-bit approximation so old results keep their margins.
func TestLegacyTargetBitsFallback(t *testing.T) {
	legacy := []byte(`{"Results":[{
		"Spec":{"Workload":"CRC32","Component":"L1D","Faults":1,"Samples":120,"Seed":1},
		"Counts":[48,72,0,0,0],
		"GoldenCycles":1418830}]}`)
	rs := NewResultSet()
	if err := json.Unmarshal(legacy, rs); err != nil {
		t.Fatal(err)
	}
	r, err := rs.Get("L1D", "CRC32", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.TargetBits != 0 {
		t.Fatalf("legacy TargetBits = %d, want 0", r.TargetBits)
	}
	if got, want := r.population(), float64(1418830)*1e6; got != want {
		t.Fatalf("legacy population = %g, want %g", got, want)
	}
	// And a margin is still computable (no division by zero / NaN).
	if m := r.AdjustedMargin(0.99); m <= 0 || m >= 1 {
		t.Fatalf("legacy margin = %f", m)
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.json")
	rs := NewResultSet()
	rs.Add(fakeResult(CompL2, "FFT", 3, 16, 3))
	if err := rs.Save(path); err != nil {
		t.Fatal(err)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "results.json" {
		t.Fatalf("directory not clean after Save: %v", entries)
	}
	loaded, err := LoadResultSet(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rs.Encode()
	got, _ := loaded.Encode()
	if !bytes.Equal(got, want) {
		t.Fatal("Load(Save(rs)) not byte-identical to rs")
	}
	// Overwriting an existing file is the per-cell flush path.
	rs.Add(fakeResult(CompRF, "qsort", 1, 16, 3))
	if err := rs.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err = LoadResultSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Cells) != 2 {
		t.Fatalf("flush overwrite lost cells: %d", len(loaded.Cells))
	}
}

func TestLoadResultSetErrors(t *testing.T) {
	if _, err := LoadResultSet(filepath.Join(t.TempDir(), "absent.json")); !os.IsNotExist(err) {
		t.Fatalf("missing file: %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{truncated"), 0o644)
	if _, err := LoadResultSet(bad); err == nil {
		t.Fatal("corrupt file loaded silently")
	}
}

// duplicateCells lists the L1D/CRC32/1-bit cell twice with different
// counts; decoding it used to keep the second entry silently.
const duplicateCells = `{"Results":[` +
	`{"Spec":{"Workload":"CRC32","Component":"L1D","Faults":1,"Samples":4,"Seed":1},"Counts":[4,0,0,0,0]},` +
	`{"Spec":{"Workload":"CRC32","Component":"L1D","Faults":1,"Samples":4,"Seed":1},"Counts":[0,4,0,0,0]}]}`

// TestLoadResultSetRejectsInconsistentResults: a results file whose list
// holds a null entry, a negative count, counts that do not sum to the
// cell's sample count or a second entry for one cell is an error naming
// the file, never a panic and never a cell that -resume or service replay
// would trust.
func TestLoadResultSetRejectsInconsistentResults(t *testing.T) {
	spec := `"Spec":{"Workload":"CRC32","Component":"L1D","Faults":1,"Samples":4,"Seed":1}`
	for name, body := range map[string]string{
		"null":      `{"Results":[null]}`,
		"negative":  `{"Results":[{` + spec + `,"Counts":[5,-1,0,0,0]}]}`,
		"short":     `{"Results":[{` + spec + `,"Counts":[2,1,0,0,0]}]}`,
		"long":      `{"Results":[{` + spec + `,"Counts":[4,1,0,0,0]}]}`,
		"overflow":  `{"Results":[{` + spec + `,"Counts":[9223372036854775807,9223372036854775807,2,0,0]}]}`,
		"duplicate": duplicateCells,
	} {
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadResultSet(path)
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: err = %v, want an error naming %s", name, err, path)
		}
		if name == "duplicate" && err != nil && !strings.Contains(err.Error(), "L1D/CRC32/1-bit: duplicate cell") {
			t.Errorf("duplicate: err = %v, want it to name the cell", err)
		}
	}
	// The consistent cell those variants were made from still loads.
	path := filepath.Join(t.TempDir(), "ok.json")
	os.WriteFile(path, []byte(`{"Results":[{`+spec+`,"Counts":[3,1,0,0,0]}]}`), 0o644)
	if _, err := LoadResultSet(path); err != nil {
		t.Fatal(err)
	}
}

// FuzzLoadResultSet fuzzes the decode behind LoadResultSet: no input may
// panic it, and every input it accepts must re-encode to a canonical form
// that decodes and encodes again to the same bytes.
func FuzzLoadResultSet(f *testing.F) {
	rs := NewResultSet()
	prot := fakeResult(CompL1D, "sha", 2, 40, 7)
	prot.Spec.Protect = Protection{Kind: ProtectSECDED, Interleave: 4}
	prot.Spec.Cluster = ClusterSpec{Rows: 2, Cols: 4}
	rs.Add(prot)
	rs.Add(fakeResult(CompDTLB, "CRC32", 1, 60, 9))
	enc, err := rs.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte(`{"Results":[{"Spec":{"Workload":"CRC32","Component":"L1D","Faults":1,"Samples":120,"Seed":1},"Counts":[48,72,0,0,0],"GoldenCycles":1418830}]}`))
	f.Add([]byte(`{"Results":[null]}`))
	f.Add([]byte(duplicateCells))
	f.Add([]byte(`{"Results":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs := NewResultSet()
		if json.Unmarshal(data, rs) != nil {
			return
		}
		enc, err := rs.Encode()
		if err != nil {
			t.Fatalf("accepted set does not encode: %v", err)
		}
		back := NewResultSet()
		if err := json.Unmarshal(enc, back); err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, enc)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("encoding not stable across a round trip:\n%s\n---\n%s", enc, again)
		}
	})
}

func TestCoversAndPending(t *testing.T) {
	rs := NewResultSet()
	rs.Add(fakeResult(CompL1D, "sha", 2, 40, 7))
	spec := Spec{Workload: "sha", Component: CompL1D, Faults: 2, Samples: 40, Seed: 7}
	if !rs.Covers(spec) {
		t.Fatal("matching cell not covered")
	}
	// Covers must compare the campaign identity, not just the cell key:
	// a different sample count or seed means the stored counts are not the
	// ones this grid would produce.
	for _, mut := range []func(*Spec){
		func(s *Spec) { s.Samples = 41 },
		func(s *Spec) { s.Seed = 8 },
		func(s *Spec) { s.Faults = 1 },
		func(s *Spec) { s.Workload = "CRC32" },
		func(s *Spec) { s.Component = CompL2 },
	} {
		m := spec
		mut(&m)
		if rs.Covers(m) {
			t.Fatalf("mismatched spec covered: %+v", m)
		}
	}
	grid := []Spec{spec, {Workload: "CRC32", Component: CompL1D, Faults: 1, Samples: 40, Seed: 7}}
	pending := rs.Pending(grid)
	if len(pending) != 1 || pending[0].Workload != "CRC32" {
		t.Fatalf("Pending = %+v", pending)
	}
}
