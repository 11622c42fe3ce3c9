package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSaveSyncsFileAndDirectory pins the crash-atomicity contract of Save:
// the temp file is fsynced BEFORE the rename (a power loss must not be
// able to replay the rename without the data, leaving an empty-but-renamed
// results file) and the directory is fsynced after it (so the rename
// itself is durable). Durability cannot be observed after the fact, so the
// fsync indirection records the calls.
func TestSaveSyncsFileAndDirectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")

	var synced []string
	orig := fsync
	fsync = func(f *os.File) error {
		synced = append(synced, f.Name())
		return f.Sync()
	}
	defer func() { fsync = orig }()

	rs := NewResultSet()
	rs.Add(&Result{Spec: Spec{Workload: "stringSearch", Component: CompL1D,
		Faults: 1, Samples: 1, Seed: 1}, Counts: [NumEffects]int{EffectMasked: 1}, GoldenCycles: 10, TargetBits: 64})
	if err := rs.Save(path); err != nil {
		t.Fatal(err)
	}

	if len(synced) != 2 {
		t.Fatalf("Save issued %d fsyncs (%v), want 2: temp file then directory", len(synced), synced)
	}
	if !strings.Contains(filepath.Base(synced[0]), ".tmp") {
		t.Errorf("first fsync hit %q, want the temp file", synced[0])
	}
	if synced[1] != dir {
		t.Errorf("second fsync hit %q, want the directory %q", synced[1], dir)
	}

	// And the save itself still round-trips.
	loaded, err := LoadResultSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Cells) != 1 {
		t.Fatalf("loaded %d cells, want 1", len(loaded.Cells))
	}

	// A failing file fsync must abort the save, leaving no file behind.
	path2 := filepath.Join(dir, "sub", "r2.json")
	if err := os.Mkdir(filepath.Dir(path2), 0o755); err != nil {
		t.Fatal(err)
	}
	fsync = func(f *os.File) error { return os.ErrInvalid }
	if err := rs.Save(path2); err == nil {
		t.Fatal("Save ignored a failing fsync")
	}
	if _, err := os.Stat(path2); !os.IsNotExist(err) {
		t.Fatalf("failed save left %s behind (stat err=%v)", path2, err)
	}
	ents, err := os.ReadDir(filepath.Dir(path2))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed save left temp files behind: %v", ents)
	}
}
