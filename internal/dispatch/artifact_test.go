package dispatch

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/telemetry"
	"mbusim/internal/workloads"
)

// artifactFixture serves the protoGrid workload's artifact from an
// httptest server and returns the server plus the workload's key.
func artifactFixture(t *testing.T, tel *telemetry.Campaign) (*httptest.Server, string) {
	t.Helper()
	specs := protoGrid(1)
	as, err := NewArtifactServer(specs, tel)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle(PathArtifact, as)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	w, err := workloads.ByName(specs[0].Workload)
	if err != nil {
		t.Fatal(err)
	}
	key, err := w.ArtifactKey()
	if err != nil {
		t.Fatal(err)
	}
	return srv, key
}

func TestArtifactServerServesAndRejects(t *testing.T) {
	tel := telemetry.NewCampaign(nil)
	srv, key := artifactFixture(t, tel)

	resp, err := http.Get(srv.URL + PathArtifact + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET known key: HTTP %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	// The served bytes must decode and verify end-to-end.
	a, err := workloads.DecodeArtifact(buf.Bytes())
	if err != nil {
		t.Fatalf("served artifact does not verify: %v", err)
	}
	if a.Key() != key {
		t.Fatalf("served artifact keyed %s, requested %s", a.Key(), key)
	}
	if got := counter(tel, telemetry.MetricArtifactServed); got != 1 {
		t.Fatalf("served counter = %d, want 1", got)
	}

	// Unknown key: 404, not an error page with a 200.
	resp2, err := http.Get(srv.URL + PathArtifact + "deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown key: HTTP %d, want 404", resp2.StatusCode)
	}
}

func TestArtifactCacheFetchesAndCaches(t *testing.T) {
	tel := telemetry.NewCampaign(nil)
	srv, key := artifactFixture(t, tel)
	dir := t.TempDir()

	cache := &ArtifactCache{Dir: dir, URL: srv.URL, Tel: tel}
	if err := cache.Ensure("stringSearch"); err != nil {
		t.Fatal(err)
	}
	if got := counter(tel, telemetry.MetricArtifactFetches); got != 1 {
		t.Fatalf("fetch counter = %d, want 1", got)
	}
	path := filepath.Join(dir, key+".mba")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("fetched artifact not cached on disk: %v", err)
	}
	if _, err := workloads.DecodeArtifact(good); err != nil {
		t.Fatalf("cached bytes do not verify: %v", err)
	}

	// Same workload again: a no-op, no second fetch.
	if err := cache.Ensure("stringSearch"); err != nil {
		t.Fatal(err)
	}
	if got := counter(tel, telemetry.MetricArtifactFetches); got != 1 {
		t.Fatalf("repeat Ensure refetched: %d", got)
	}

	// A fresh cache instance (a new process) hits the disk instead.
	cache2 := &ArtifactCache{Dir: dir, URL: srv.URL, Tel: tel}
	if err := cache2.Ensure("stringSearch"); err != nil {
		t.Fatal(err)
	}
	if got := counter(tel, telemetry.MetricArtifactCacheHits); got != 1 {
		t.Fatalf("cache-hit counter = %d, want 1", got)
	}
	if got := counter(tel, telemetry.MetricArtifactFetches); got != 1 {
		t.Fatalf("disk hit still fetched: %d", got)
	}
}

func TestArtifactCacheCorruptDiskRefetches(t *testing.T) {
	tel := telemetry.NewCampaign(nil)
	srv, key := artifactFixture(t, tel)
	dir := t.TempDir()
	path := filepath.Join(dir, key+".mba")

	// Seed the cache with a valid artifact, then corrupt it on disk.
	seed := &ArtifactCache{Dir: dir, URL: srv.URL, Tel: tel}
	if err := seed.Ensure("stringSearch"); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(good)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh cache must reject the corrupt file — never install it, never
	// crash — refetch, and leave a verified copy in its place.
	cache := &ArtifactCache{Dir: dir, URL: srv.URL, Tel: tel}
	if err := cache.Ensure("stringSearch"); err != nil {
		t.Fatal(err)
	}
	if got := counter(tel, telemetry.MetricArtifactCorrupt); got != 1 {
		t.Fatalf("corrupt counter = %d, want 1", got)
	}
	if got := counter(tel, telemetry.MetricArtifactFetches); got != 2 {
		t.Fatalf("fetch counter = %d, want 2 (seed + refetch)", got)
	}
	if got := counter(tel, telemetry.MetricArtifactFallbacks); got != 0 {
		t.Fatalf("fallback counter = %d, want 0", got)
	}
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("corrupt cache entry not replaced: %v", err)
	}
	if !bytes.Equal(repaired, good) {
		t.Fatal("cache entry not repaired with verified bytes")
	}
}

func TestArtifactCacheFallsBackWithoutCoordinator(t *testing.T) {
	tel := telemetry.NewCampaign(nil)
	// No disk cache, and a coordinator that answers 404 for everything.
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	cache := &ArtifactCache{URL: srv.URL, Tel: tel}
	if err := cache.Ensure("stringSearch"); err != nil {
		t.Fatal(err)
	}
	if got := counter(tel, telemetry.MetricArtifactFallbacks); got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}
	// Unknown workloads are a real error, not a fallback.
	if err := cache.Ensure("no-such-workload"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestSubmitSpecMismatchIsStale pins the other half of the identity bugfix:
// a worker submitting a result whose spec differs in any outcome-affecting
// field — even with the cell key, samples and seed all matching — must be
// answered StatusStale and kept out of the canonical result set.
func TestSubmitSpecMismatchIsStale(t *testing.T) {
	specs := protoGrid(1)
	muts := map[string]func(*core.Spec){
		"cluster":       func(s *core.Spec) { s.Cluster = core.ClusterSpec{Rows: 9, Cols: 1} },
		"timeoutFactor": func(s *core.Spec) { s.TimeoutFactor = 2 },
		"wallTimeout":   func(s *core.Spec) { s.WallTimeout = time.Minute },
		"forceSpanning": func(s *core.Spec) { s.ForceSpanning = true },
		"protect":       func(s *core.Spec) { s.Protect = core.Protection{Kind: core.ProtectSECDED} },
	}
	for name, mut := range muts {
		c, err := New(specs, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		clockFor(c)
		l := c.lease(&LeaseRequest{Worker: "w1"})
		stale := specs[0]
		mut(&stale)
		rep := c.submit(&SubmitRequest{Worker: "w1", LeaseID: l.LeaseID,
			Cell: l.Cell, Result: fakeResult(stale)})
		if rep.Status != StatusStale {
			t.Errorf("%s: mismatched submit = %q, want stale", name, rep.Status)
		}
		if c.Stats().Done != 0 {
			t.Errorf("%s: mismatched submit completed the cell", name)
		}
	}

	// The result a real worker records carries normalized defaults
	// (Cluster, TimeoutFactor filled in); that must still be accepted.
	c, err := New(specs, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clockFor(c)
	l := c.lease(&LeaseRequest{Worker: "w1"})
	normalized := specs[0].Normalize()
	if rep := c.submit(&SubmitRequest{Worker: "w1", LeaseID: l.LeaseID,
		Cell: l.Cell, Result: fakeResult(normalized)}); rep.Status != StatusAccepted {
		t.Fatalf("normalized submit = %q, want accepted", rep.Status)
	}
}
