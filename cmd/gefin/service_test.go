package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mbusim/internal/dispatch"
)

// TestServiceFlagValidation: configurations that cannot work exit 2 before
// any listener opens or any state directory is touched.
func TestServiceFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"service-dir without serve", []string{"-service-dir", "d"}, "needs -serve"},
		{"service with grid flags", []string{"-serve", ":0", "-service-dir", "d", "-all"}, "POST /campaigns, not flags"},
		{"service with out", []string{"-serve", ":0", "-service-dir", "d", "-out", "r.json"}, "POST /campaigns, not flags"},
		{"submit with serve", []string{"-submit", "localhost:1", "-serve", ":0"}, "-serve and -submit are mutually exclusive"},
		{"submit with campaigns", []string{"-submit", "localhost:1", "-campaigns", "localhost:1"}, "-submit and -campaigns are mutually exclusive"},
		{"campaigns with join", []string{"-campaigns", "localhost:1", "-join", "localhost:1"}, "-join and -campaigns are mutually exclusive"},
		{"do without campaign id", []string{"-campaigns", "localhost:1", "-do", "pause"}, "-do needs"},
		{"do without campaigns", []string{"-campaign", "c000000", "-do", "pause"}, "-campaign is not used in local mode"},
		{"zero lease ttl", []string{"-serve", ":0", "-service-dir", "d", "-lease-ttl", "0s"}, "-lease-ttl must be positive"},
		{"negative lease ttl", append(tinyGrid(), "-serve", ":0", "-lease-ttl", "-1s"), "-lease-ttl must be positive"},
		{"negative retries", append(tinyGrid(), "-serve", ":0", "-retries", "-1"), "-retries must be >= 0"},
		{"zero queue depth", []string{"-serve", ":0", "-service-dir", "d", "-queue-depth", "0"}, "-queue-depth must be positive"},
		{"negative max active", []string{"-serve", ":0", "-service-dir", "d", "-max-active", "-3"}, "-max-active must be positive"},
		{"zero tenant campaigns", []string{"-serve", ":0", "-service-dir", "d", "-tenant-campaigns", "0"}, "-tenant-campaigns must be positive"},
		{"zero tenant cells", []string{"-serve", ":0", "-service-dir", "d", "-tenant-cells", "0"}, "-tenant-cells must be positive"},
	}
	for _, tc := range cases {
		code, _, stderr := runGefin(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: exit=%d stderr=%q, want 2 with %q", tc.name, code, stderr, tc.want)
		}
	}
}

// TestSubmitUnreachableServiceFails: a submit against nothing is a runtime
// failure (1) after the client's patience, not a hang.
func TestSubmitUnreachableServiceFails(t *testing.T) {
	t.Parallel()
	// The client retries for MaxWait; connection-refused is instant, so a
	// short patience keeps this test quick. There is no flag for MaxWait —
	// use the package client directly with the same classification.
	cl := &dispatch.Client{URL: "http://127.0.0.1:1", MaxWait: 50 * time.Millisecond}
	_, err := cl.Campaigns(context.Background())
	if err == nil {
		t.Fatal("campaign list against a dead address succeeded")
	}
	if code := clientExit(&bytes.Buffer{}, err); code != 1 {
		t.Fatalf("unreachable service exit = %d, want 1", code)
	}
}

// startGefin runs gefin with args in a goroutine until it reports its
// campaign service listening, and returns the resolved address, the exit
// code channel and the stderr stream.
func startGefin(t *testing.T, args ...string) (string, <-chan int, *syncBuffer) {
	t.Helper()
	errB := &syncBuffer{}
	done := make(chan int, 1)
	go func() { done <- run(args, &bytes.Buffer{}, errB) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s := errB.String(); strings.Contains(s, "campaign service on http://") {
			s = s[strings.Index(s, "on http://")+len("on http://"):]
			return strings.Fields(s)[0], done, errB
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign service never came up: %s", errB.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startServiceGefin boots `gefin -serve 127.0.0.1:0 -service-dir DIR` and
// returns the resolved address. The goroutine leaks (service mode only
// exits on a signal) — harmless, the test binary's exit reaps it.
func startServiceGefin(t *testing.T, dir string, extra ...string) string {
	t.Helper()
	addr, _, _ := startGefin(t, append([]string{"-serve", "127.0.0.1:0", "-service-dir", dir}, extra...)...)
	return addr
}

// TestServiceSubmitWaitMatchesLocal is the CLI face of the campaign
// service: -submit with the usual grid flags, -campaign-out to wait and
// download, a plain -join worker doing the work, and the downloaded file
// byte-identical to the same grid run locally. Also exercises -campaigns
// listing and -do cancel on a second, never-started campaign.
func TestServiceSubmitWaitMatchesLocal(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	gotPath := filepath.Join(dir, "got.json")
	if code, _, stderr := runGefin(t, tinyGrid("-out", refPath)...); code != 0 {
		t.Fatalf("reference run failed: %s", stderr)
	}

	addr := startServiceGefin(t, filepath.Join(dir, "state"), "-max-active", "1")

	// A worker with no campaigns yet: it waits, it does not exit.
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workerDone := make(chan int, 1)
	go func() {
		w := &dispatch.Worker{ID: "w1", Client: dispatch.Client{URL: "http://" + addr,
			Backoff: dispatch.Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond}}}
		w.Run(wctx)
		workerDone <- 1
	}()

	// Submit-and-wait: the CLI blocks until done and writes the results.
	code, stdout, stderr := runGefin(t, tinyGrid("-submit", addr, "-name", "cli-e2e",
		"-tenant", "acme", "-campaign-out", gotPath)...)
	if code != 0 {
		t.Fatalf("submit exit=%d stderr=%s", code, stderr)
	}
	if !strings.Contains(stdout, "tenant acme") {
		t.Fatalf("submit output missing tenant: %s", stdout)
	}

	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("campaign-service results differ from local run")
	}

	// The campaign list shows the finished campaign with its name.
	code, stdout, stderr = runGefin(t, "-campaigns", addr)
	if code != 0 {
		t.Fatalf("-campaigns exit=%d stderr=%s", code, stderr)
	}
	if !strings.Contains(stdout, "done") || !strings.Contains(stdout, "name=cli-e2e") {
		t.Fatalf("campaign listing: %s", stdout)
	}
	id := strings.Fields(stdout)[0]

	// Transitions against a finished campaign are typed config errors (2).
	code, _, stderr = runGefin(t, "-campaigns", addr, "-campaign", id, "-do", "pause")
	if code != 2 || !strings.Contains(stderr, "bad_transition") {
		t.Fatalf("pause of finished campaign: exit=%d stderr=%s", code, stderr)
	}

	// Submit a second campaign and cancel it through the CLI.
	code, stdout, stderr = runGefin(t, tinyGrid("-submit", addr, "-name", "doomed")...)
	if code != 0 {
		t.Fatalf("second submit exit=%d stderr=%s", code, stderr)
	}
	id2 := strings.Fields(strings.TrimPrefix(stdout, "campaign "))[0]
	id2 = strings.TrimSuffix(id2, ":")
	code, stdout, stderr = runGefin(t, "-campaigns", addr, "-campaign", id2, "-do", "cancel")
	if code != 0 || !strings.Contains(stdout, "cancelled") {
		t.Fatalf("cancel: exit=%d stdout=%s stderr=%s", code, stdout, stderr)
	}

	// Through all of it the worker kept serving — campaigns end, the fleet
	// stays. Only its context cancels it.
	select {
	case <-workerDone:
		t.Fatal("worker exited when the campaign finished; service workers are persistent")
	default:
	}
	wcancel()
	select {
	case <-workerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit on context cancel")
	}
}
