package dispatch

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mbusim/internal/core"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.jsonl")
}

func mustAppend(t *testing.T, j *Journal, rec JournalRecord) {
	t.Helper()
	if err := j.Append(rec); err != nil {
		t.Fatal(err)
	}
}

func TestJournalAppendReplay(t *testing.T) {
	path := journalPath(t)
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	specs := []core.Spec{{Workload: "stringSearch", Component: core.CompL1D,
		Faults: 2, Samples: 4, Seed: 3}}
	mustAppend(t, j, JournalRecord{Op: JournalOpSubmit, ID: "c000000",
		Tenant: "acme", Name: "nightly", Retries: 3, Specs: specs, TimeNS: 7})
	mustAppend(t, j, JournalRecord{Op: JournalOpState, ID: "c000000",
		State: StateRunning, TimeNS: 9})
	j.Close()

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	sub := recs[0]
	if sub.Op != JournalOpSubmit || sub.ID != "c000000" || sub.Tenant != "acme" ||
		sub.Name != "nightly" || sub.Retries != 3 || len(sub.Specs) != 1 {
		t.Fatalf("submit record corrupted by round-trip: %+v", sub)
	}
	if !sub.Specs[0].Equivalent(specs[0]) {
		t.Fatalf("replayed spec not equivalent: %+v", sub.Specs[0])
	}
	if st := recs[1]; st.Op != JournalOpState || st.State != StateRunning {
		t.Fatalf("state record corrupted by round-trip: %+v", st)
	}
	// The reopened journal appends after the replayed records, not over them.
	mustAppend(t, j2, JournalRecord{Op: JournalOpState, ID: "c000000", State: StateDone})
	_, recs, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].State != StateDone {
		t.Fatalf("append after reopen lost records: %+v", recs)
	}
}

// TestJournalTornTail: a crash mid-append leaves a damaged final line. Open
// must drop it (the record was never acknowledged), truncate the file back
// to the end of the last whole record, and accept new appends — the crashed
// submitter's retry lands as a fresh record, idempotently. A damaged line
// that happens to end in a newline is cut too, or the next append would
// strand it mid-stream and every later open would fail.
func TestJournalTornTail(t *testing.T) {
	for _, tc := range []struct{ name, tail string }{
		{"half line", `{"op":"submit","id":"c0000`},
		{"garbage line", "\x00\x00\x00\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := journalPath(t)
			j, _, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, j, JournalRecord{Op: JournalOpSubmit, ID: "c000000"})
			j.Close()
			whole := readFile(t, path)
			if err := os.WriteFile(path, append(whole, tc.tail...), 0o644); err != nil {
				t.Fatal(err)
			}

			j2, recs, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("torn tail should be tolerated: %v", err)
			}
			if len(recs) != 1 || recs[0].ID != "c000000" {
				t.Fatalf("replay after torn tail = %+v, want the one whole record", recs)
			}
			if tail := readFile(t, path); string(tail) != string(whole) {
				t.Fatalf("torn tail not truncated: %q", tail)
			}
			// The retry is re-accepted and lands cleanly after the truncation point.
			mustAppend(t, j2, JournalRecord{Op: JournalOpSubmit, ID: "c000001"})
			j2.Close()
			_, recs, err = OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 || recs[1].ID != "c000001" {
				t.Fatalf("append after torn-tail recovery = %+v", recs)
			}
		})
	}
}

// TestJournalMidstreamCorruption: a bad line with more data after it is
// damage, not an interrupted append, and must fail the open loudly.
func TestJournalMidstreamCorruption(t *testing.T) {
	path := journalPath(t)
	data := `{"op":"submit","id":"c000000"}` + "\n" +
		`NOT JSON` + "\n" +
		`{"op":"state","id":"c000000","state":"running"}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenJournal(path)
	if err == nil {
		t.Fatal("mid-stream corruption should fail the open")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("corruption error should name the line: %v", err)
	}
}

// TestJournalSyncsBeforeAck: Append must not return before the bytes are
// fsynced — the acknowledgement IS the durability promise.
func TestJournalSyncsBeforeAck(t *testing.T) {
	synced := 0
	orig := jfsync
	jfsync = func(f *os.File) error { synced++; return orig(f) }
	defer func() { jfsync = orig }()

	j, _, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustAppend(t, j, JournalRecord{Op: JournalOpSubmit, ID: "c000000"})
	if synced != 1 {
		t.Fatalf("Append fsynced %d times, want 1", synced)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzOpenJournal feeds arbitrary bytes to OpenJournal as an on-disk
// journal, appends one record, and reopens. Whatever the bytes, nothing
// panics, and a journal that opened once keeps opening: the reopen returns
// the first open's records plus the appended one.
func FuzzOpenJournal(f *testing.F) {
	whole := `{"op":"submit","id":"c000000","t_ns":7,"tenant":"acme","specs":[{"Workload":"stringSearch","Component":"L1D","Faults":2,"Samples":4,"Seed":3}]}` + "\n" +
		`{"op":"state","id":"c000000","t_ns":9,"state":"running"}` + "\n"
	for _, seed := range []string{
		"",
		whole,
		whole + `{"op":"submit","id":"c0000`,
		whole + "\x00\x00\x00\n",
		`{"op":"submit","id":"c000000"}` + "\n" + `NOT JSON` + "\n" + `{"op":"state","id":"c000000","state":"running"}` + "\n",
		`{"op":"submit","id":"c000000"}`,
		"\n \r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := OpenJournal(path)
		if err != nil {
			return
		}
		rec := JournalRecord{Op: JournalOpState, ID: "c000001", TimeNS: 1, State: StateDone}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j2, got, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("journal opened, took one append, then failed to reopen: %v\n%q", err, readFile(t, path))
		}
		j2.Close()
		if want := append(recs, rec); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopen returned %+v, want %+v", got, want)
		}
	})
}
