package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"mbusim/internal/core"
	"mbusim/internal/telemetry"
)

// The campaign journal is the service's crash-safe source of truth for
// WHAT was asked of it: every accepted submission and every campaign state
// transition is one JSONL record, written with a single Write call and
// fsynced before the client hears "accepted" — the same durability
// discipline as ResultSet.Save (results) and the event log (telemetry).
// Cell-level progress deliberately does NOT live here: the per-campaign
// ResultSet files already record it atomically, so a restarted service
// replays the journal to rebuild the campaign set and then loads each live
// campaign's results file to mark covered cells done, byte-identically to
// the pre-crash state.
//
// A crash can only ever tear the FINAL line (one Write per record). Open
// truncates a torn tail and carries on — the record was never acknowledged,
// so the client's retry re-submits it idempotently. Mid-stream corruption
// is a damaged journal, not an interrupted one, and fails the open.

// Journal ops.
const (
	JournalOpSubmit = "submit" // a campaign admitted into the queue
	JournalOpState  = "state"  // a campaign state transition
)

// JournalRecord is one line of the campaign journal.
type JournalRecord struct {
	Op     string `json:"op"`
	ID     string `json:"id"`
	TimeNS int64  `json:"t_ns"`

	// Submit fields.
	Tenant  string      `json:"tenant,omitempty"`
	Name    string      `json:"name,omitempty"`
	Retries int         `json:"retries,omitempty"` // per-campaign retry budget, 0 = service default
	Specs   []core.Spec `json:"specs,omitempty"`

	// State fields.
	State  string `json:"state,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// jfsync is the journal's file-sync call, indirected so tests can observe
// that appends really sync before they are acknowledged.
var jfsync = func(f *os.File) error { return f.Sync() }

// Journal appends campaign records durably to one file.
type Journal struct {
	f *os.File
}

// OpenJournal opens (creating if absent) the journal at path, returning
// the intact records for replay. A torn final line — the signature of a
// crash mid-append — is truncated away; the interrupted record was never
// acknowledged, so dropping it is correct, and the submitter's retry will
// be accepted as a fresh campaign. A malformed line with more data after
// it is corruption and fails the open.
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	recs, torn, err := readJournal(data)
	if err != nil {
		return nil, nil, fmt.Errorf("dispatch: journal %s: %w", path, err)
	}
	f, err := telemetry.ReopenJSONL(path, data, torn)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{f: f}, recs, nil
}

// Append writes one record as a single line and fsyncs it. Only after
// Append returns may the service acknowledge the action the record
// describes — that ordering is the whole crash-recovery guarantee.
func (j *Journal) Append(rec JournalRecord) error {
	line, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return jfsync(j.f)
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// readJournal parses a JSONL journal. Blank lines are skipped; a malformed
// FINAL line is tolerated (torn tail) and dropped, reported as torn, while
// a malformed line followed by more data fails with its line number.
func readJournal(data []byte) (recs []JournalRecord, torn bool, err error) {
	line := 0
	var pendingErr error
	for len(data) > 0 {
		line++
		var raw []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			raw, data = data[:i], data[i+1:]
		} else {
			raw, data = data, nil
		}
		raw = bytes.TrimSpace(raw)
		if len(raw) == 0 {
			continue
		}
		if pendingErr != nil {
			return nil, false, pendingErr
		}
		var rec JournalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			pendingErr = fmt.Errorf("journal line %d: %w", line, err)
			continue
		}
		recs = append(recs, rec)
	}
	return recs, pendingErr != nil, nil
}
