package workloads

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"mbusim/internal/sim"
	"mbusim/internal/wire"
)

// countGoldenDerivations routes the OnGoldenDerived hook into a counter for
// the duration of the test.
func countGoldenDerivations(t *testing.T) *int {
	t.Helper()
	prev := OnGoldenDerived
	n := new(int)
	OnGoldenDerived = func(string) { *n++ }
	t.Cleanup(func() { OnGoldenDerived = prev })
	return n
}

func TestArtifactRoundTrip(t *testing.T) {
	w, err := ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ExportArtifact(w)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload != a.Workload || back.ImageHash != a.ImageHash || back.K != a.K {
		t.Fatalf("identity fields lost: %+v", back)
	}
	if back.Golden.Cycles != a.Golden.Cycles || back.Golden.ExitCode != a.Golden.ExitCode ||
		!bytes.Equal(back.Golden.Stdout, a.Golden.Stdout) || back.Golden.Committed != a.Golden.Committed {
		t.Fatalf("golden lost: %+v", back.Golden)
	}
	if len(back.Snaps) != len(a.Snaps) {
		t.Fatalf("checkpoint count %d, want %d", len(back.Snaps), len(a.Snaps))
	}

	// The decoded snapshots carry no predecoded text; bind the program and
	// verify each restores to a machine bit-identical to the original
	// snapshot (EqualsSnapshot covers every component's mutable state).
	m, err := w.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range back.Snaps {
		if s.Cfg != a.Snaps[i].Cfg {
			t.Fatalf("checkpoint %d config changed", i)
		}
		if err := s.BindProgram(m); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		restored := sim.New(s.Cfg)
		restored.RestoreFrom(s)
		if !restored.EqualsSnapshot(a.Snaps[i]) {
			t.Fatalf("checkpoint %d (cycle %d) did not survive the round trip", i, back.Cycles[i])
		}
	}
}

func TestArtifactKey(t *testing.T) {
	w, err := ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	k1, err := w.ArtifactKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := w.ArtifactKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("key not deterministic: %s vs %s", k1, k2)
	}
	a, err := ExportArtifact(w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != k1 {
		t.Fatalf("exported key %s, expected key %s", a.Key(), k1)
	}

	// The key is a content address: a different checkpoint count or a
	// different workload must produce a different key.
	other := *a
	other.K++
	if other.Key() == k1 {
		t.Fatal("key insensitive to checkpoint count")
	}
	w2, err := ByName("CRC32")
	if err != nil {
		t.Fatal(err)
	}
	k3, err := w2.ArtifactKey()
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("two workloads share a key")
	}
}

func TestArtifactDecodeRejectsCorruption(t *testing.T) {
	w, err := ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ExportArtifact(w)
	if err != nil {
		t.Fatal(err)
	}
	good := a.Encode()
	if _, err := DecodeArtifact(good); err != nil {
		t.Fatalf("pristine artifact rejected: %v", err)
	}

	// A flipped byte anywhere must fail the content hash — probe the
	// header, the middle of the snapshot payload, and the trailer itself.
	for _, pos := range []int{0, 5, 40, len(good) / 2, len(good) - 1} {
		bad := bytes.Clone(good)
		bad[pos] ^= 0x01
		if _, err := DecodeArtifact(bad); err == nil {
			t.Errorf("flipped byte %d decoded cleanly", pos)
		}
	}
	// Truncations: inside the header, inside the payload, inside the
	// trailer.
	for _, n := range []int{0, 8, 100, len(good) - 1} {
		if _, err := DecodeArtifact(good[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded cleanly", n)
		}
	}
}

func TestInstallArtifact(t *testing.T) {
	src, err := ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ExportArtifact(src)
	if err != nil {
		t.Fatal(err)
	}
	// Decode a fresh copy so the install exercises unbound snapshots, the
	// cross-process case.
	a, err = DecodeArtifact(a.Encode())
	if err != nil {
		t.Fatal(err)
	}

	// A fresh Workload with the same source stands in for a worker process
	// that has never derived anything.
	w := &Workload{Name: src.Name, Source: src.Source}
	derived := countGoldenDerivations(t)
	if err := InstallArtifact(w, a); err != nil {
		t.Fatal(err)
	}
	g, err := w.Reference()
	if err != nil {
		t.Fatal(err)
	}
	if g.Cycles != a.Golden.Cycles || !bytes.Equal(g.Stdout, a.Golden.Stdout) {
		t.Fatalf("installed golden differs: %+v", g)
	}
	// The installed checkpoints must actually run: fast-forward to the last
	// checkpoint and finish, reproducing the golden outcome.
	cycles, err := w.CheckpointCycles()
	if err != nil {
		t.Fatal(err)
	}
	m, ck, err := w.NewRestorer().MachineAt(g.Cycles - 1)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Cycle != cycles[len(cycles)-1] {
		t.Fatalf("fast-forwarded to %d, want last checkpoint %d", ck.Cycle, cycles[len(cycles)-1])
	}
	out := m.Run(0, 0, nil)
	if out.Cycles != g.Cycles || out.ExitCode != g.ExitCode || !bytes.Equal(out.Stdout, g.Stdout) {
		t.Fatalf("installed checkpoint diverged from golden: cycles=%d want %d", out.Cycles, g.Cycles)
	}
	if *derived != 0 {
		t.Fatalf("install still derived %d goldens locally", *derived)
	}
}

func TestInstallArtifactRejectsMismatch(t *testing.T) {
	src, err := ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ExportArtifact(src)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong workload name.
	w := &Workload{Name: "CRC32", Source: src.Source}
	if err := InstallArtifact(w, a); err == nil || !strings.Contains(err.Error(), "artifact is for") {
		t.Fatalf("name mismatch accepted: %v", err)
	}
	// Wrong image: same name, different source.
	w = &Workload{Name: src.Name, Source: strings.Replace(src.Source, "12345", "12346", 1)}
	if err := InstallArtifact(w, a); err == nil || !strings.Contains(err.Error(), "image hash") {
		t.Fatalf("image mismatch accepted: %v", err)
	}
	// Wrong checkpoint count for this process's configuration.
	bad := *a
	bad.K++
	w = &Workload{Name: src.Name, Source: src.Source}
	if err := InstallArtifact(w, &bad); err == nil || !strings.Contains(err.Error(), "checkpoints") {
		t.Fatalf("K mismatch accepted: %v", err)
	}
	// A snapshot that claims the default configuration but carries a
	// half-size L1 would panic at restore; the install must refuse it.
	cfg := sim.DefaultConfig()
	cfg.L1Size /= 2
	m := sim.New(cfg)
	prog, err := src.Program()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	forged := m.Snapshot()
	forged.Cfg = sim.DefaultConfig()
	bad = *a
	bad.Snaps = append([]*sim.Snapshot{forged}, a.Snaps[1:]...)
	if err := InstallArtifact(w, &bad); err == nil || !strings.Contains(err.Error(), "checkpoint 0: L1I") {
		t.Fatalf("forged geometry accepted: %v", err)
	}
	// A rejected install must leave the workload untouched: deriving still
	// works from scratch, golden run and checkpoints alike.
	derived := countGoldenDerivations(t)
	g, err := w.Reference()
	if err != nil {
		t.Fatal(err)
	}
	if g.Cycles == 0 || *derived != 1 {
		t.Fatalf("fallback derivation broken after rejected install: derived=%d", *derived)
	}
	if _, _, err := w.NewRestorer().MachineAt(g.Cycles / 2); err != nil {
		t.Fatalf("checkpoints unusable after rejected install: %v", err)
	}
}

// fuzzArtifact builds a one-checkpoint artifact on a scaled-down machine
// (1 KiB L1s, 4 KiB L2, 18-bit physical addresses), so a seed is tens of
// kilobytes instead of the default configuration's hundreds. The
// snapshot is taken after warm cycles of execution, so its ROB, queues
// and caches hold in-flight state; the decoder does not tie a snapshot's
// contents to its checkpoint cycle.
func fuzzArtifact(tb testing.TB, name string, warm uint64) *Artifact {
	tb.Helper()
	w, err := ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := w.Program()
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.L1Size, cfg.L2Size, cfg.PABits = 1<<10, 4<<10, 18
	m := sim.New(cfg)
	if err := m.Load(prog); err != nil {
		tb.Fatal(err)
	}
	if warm > 0 {
		m.Run(warm, 0, nil)
	}
	return &Artifact{
		Workload:  name,
		ImageHash: HashImage(prog),
		K:         1,
		Golden:    Golden{Cycles: warm + 1, Committed: warm / 2, Stdout: []byte("ok\n")},
		Cycles:    []uint64{0},
		Snaps:     []*sim.Snapshot{m.Snapshot()},
	}
}

// FuzzDecodeArtifact fuzzes the artifact payload behind a freshly sealed
// envelope, so mutations get past the hash check and reach every
// component decoder. Decoding must not panic, must allocate at most 1 MiB
// plus 16 bytes per input byte, and every accepted artifact must
// re-encode to its own bytes.
func FuzzDecodeArtifact(f *testing.F) {
	for _, warm := range []uint64{0, 3000} {
		payload, err := wire.Open(fuzzArtifact(f, "stringSearch", warm).Encode(), artifactMagic, ArtifactFormat)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		data := wire.Seal(artifactMagic, ArtifactFormat, payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := DecodeArtifact(data)
		runtime.ReadMemStats(&after)
		if alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+16*len(data)); alloc > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d (err %v)", len(data), alloc, budget, err)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(a.Encode(), data) {
			t.Fatal("accepted artifact does not re-encode to its own bytes")
		}
	})
}
