package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mbusim/internal/liveness"
)

func readProfile(t *testing.T, path string) (*liveness.Profile, []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := liveness.DecodeProfile(data)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return p, data
}

func TestProfileModeWritesAndCaches(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runGefin(t, "-profile", dir, "-workload", "stringSearch", "-windows", "8")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	path := filepath.Join(dir, "stringSearch.mbup")
	p, first := readProfile(t, path)
	if p.Workload != "stringSearch" || p.Windows != 8 {
		t.Fatalf("artifact identity: %q windows=%d", p.Workload, p.Windows)
	}
	if !strings.Contains(stdout, "stringSearch") {
		t.Errorf("no progress line: %s", stdout)
	}

	// Second run: the artifact is current, so it is kept, not rewritten.
	code, stdout, stderr = runGefin(t, "-profile", dir, "-workload", "stringSearch", "-windows", "8")
	if code != 0 {
		t.Fatalf("rerun exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "up to date") {
		t.Errorf("rerun did not report the cache hit: %s", stdout)
	}
	if _, second := readProfile(t, path); !bytes.Equal(first, second) {
		t.Error("rerun changed a current artifact")
	}

	// A different window count is a different profile: re-profiled.
	code, stdout, _ = runGefin(t, "-profile", dir, "-workload", "stringSearch", "-windows", "4")
	if code != 0 || strings.Contains(stdout, "up to date") {
		t.Fatalf("window change not re-profiled: exit=%d %s", code, stdout)
	}
	if p, _ := readProfile(t, path); p.Windows != 4 {
		t.Errorf("artifact windows = %d, want 4", p.Windows)
	}
}

// TestProfileModeDeterministicAcrossStrategies: a profile observes one fresh
// golden run, so the artifact is byte-identical however the invocation is
// shaped (quiet or verbose, alone or after another workload in a list), and
// no execution-strategy flag can select another path: profile mode rejects
// -nockpt, and -nodelta no longer exists.
func TestProfileModeDeterministicAcrossStrategies(t *testing.T) {
	var first []byte
	for _, args := range [][]string{
		{"-workload", "stringSearch", "-q"},
		{"-workload", "stringSearch"},
		{"-workload", "CRC32,stringSearch", "-q"},
	} {
		dir := t.TempDir()
		code, _, stderr := runGefin(t, append([]string{"-profile", dir, "-windows", "8"}, args...)...)
		if code != 0 {
			t.Fatalf("%v: exit = %d, stderr: %s", args, code, stderr)
		}
		_, data := readProfile(t, filepath.Join(dir, "stringSearch.mbup"))
		if first == nil {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Fatalf("profile under %v differs from the first profile", args)
		}
	}
	for _, flag := range []string{"-nockpt", "-nodelta"} {
		if code, _, _ := runGefin(t, "-profile", t.TempDir(), "-workload", "stringSearch", "-windows", "8", flag); code != 2 {
			t.Errorf("%s: exit = %d, want 2", flag, code)
		}
	}
}

// TestProfileModeRecoversCorruptArtifact: a truncated or bit-flipped
// artifact is reported in one line and re-profiled, never trusted and
// never a crash.
func TestProfileModeRecoversCorruptArtifact(t *testing.T) {
	dir := t.TempDir()
	if code, _, stderr := runGefin(t, "-profile", dir, "-workload", "stringSearch", "-windows", "8", "-q"); code != 0 {
		t.Fatalf("seed run failed: %s", stderr)
	}
	path := filepath.Join(dir, "stringSearch.mbup")
	_, good := readProfile(t, path)

	corrupt := append([]byte(nil), good[:len(good)/2]...)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runGefin(t, "-profile", dir, "-workload", "stringSearch", "-windows", "8")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "re-profiling") {
		t.Errorf("corruption not reported: %s", stderr)
	}
	if strings.Contains(stdout, "up to date") {
		t.Error("corrupt artifact treated as current")
	}
	if _, rebuilt := readProfile(t, path); !bytes.Equal(good, rebuilt) {
		t.Error("rebuilt artifact differs from the original")
	}
}

func TestProfileModeFlagConflicts(t *testing.T) {
	cases := [][]string{
		{"-profile", "x", "-join", "host:1"},
		{"-profile", "x", "-serve", ":0"},
		{"-profile", "x", "-out", "r.json"},
		{"-profile", "x", "-resume", "-out", "r.json"},
	}
	for _, args := range cases {
		if code, _, _ := runGefin(t, args...); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
	}
	if code, _, stderr := runGefin(t, "-profile", t.TempDir(), "-workload", "nosuch"); code != 2 {
		t.Errorf("unknown workload: exit = %d (%s), want 2", code, stderr)
	}
	if code, _, stderr := runGefin(t, "-profile", t.TempDir(), "-workload", "stringSearch", "-windows", "0"); code != 2 {
		t.Errorf("bad window count: exit = %d (%s), want 2", code, stderr)
	}
}
