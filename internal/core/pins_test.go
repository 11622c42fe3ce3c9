package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mbusim/internal/workloads"
)

// TestEncodingPins pins the sha256 of three encodings whose bytes are a
// contract: the checkpoint artifact a service ships to its workers, the
// liveness profile gefin -profile writes, and the ResultSet a campaign
// saves. A round-trip test still passes when a format drifts; these
// digests do not, so they are the proof that a codec refactor is
// byte-identical and that an optimization left every outcome unchanged.
func TestEncodingPins(t *testing.T) {
	pin := func(t *testing.T, data []byte, want, onChange string) {
		t.Helper()
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("sha256 %s, pinned %s (%d bytes): %s", got, want, len(data), onChange)
		}
	}

	t.Run("artifact", func(t *testing.T) {
		w, err := workloads.ByName("sha")
		if err != nil {
			t.Fatal(err)
		}
		a, err := workloads.ExportArtifact(w)
		if err != nil {
			t.Fatal(err)
		}
		pin(t, a.Encode(), "34b71b292e9bddf51a6432977522d66a03d96416a2077d51311c9235e18f3689",
			"if the artifact or snapshot format changed on purpose, bump workloads.ArtifactFormat or sim.SnapshotFormat and update the pin")
	})

	t.Run("profile", func(t *testing.T) {
		w, err := workloads.ByName("stringSearch")
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Profile(16)
		if err != nil {
			t.Fatal(err)
		}
		pin(t, p.Encode(), "10759a3dbfbac4dae19ac90c7474807953bb7783cdda484935c1b5b39f9c1662",
			"if the profile format changed on purpose, bump liveness.ProfileFormat and update the pin")
	})

	t.Run("resultset", func(t *testing.T) {
		var specs []Spec
		for _, comp := range []string{CompL1D, CompL1I, CompL2, CompRF, CompDTLB, CompITLB} {
			specs = append(specs, Spec{Workload: "stringSearch", Component: comp, Faults: 2, Samples: 40, Seed: 1})
		}
		rs := NewResultSet()
		if err := RunGrid(context.Background(), specs, 2, func(_ int, r *Result) { rs.Add(r) }); err != nil {
			t.Fatal(err)
		}
		enc, err := rs.Encode()
		if err != nil {
			t.Fatal(err)
		}
		pin(t, enc, "6d295cbf0755be79b90702a2f399f5c2f0eaf6fc6e816266bee3419030d12bb5",
			"campaign outcomes or the ResultSet encoding changed; if that was on purpose, update the pin")
	})
}
