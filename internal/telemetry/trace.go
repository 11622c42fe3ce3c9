package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Trace schema versions. v1 traces hold untyped sample records; v2 records
// carry a "type" field ("sample", "forensics", ...) so one stream can mix
// record kinds. Readers treat a missing type as "sample" and skip unknown
// types, so v2 readers accept v1 files and future record kinds degrade
// gracefully.
const (
	RecordSample    = "sample"
	RecordForensics = "forensics"
)

// SampleRecord is one line of the campaign trace: the complete event record
// of a single fault-injection sample, following the per-fault event-record
// style of Jaulmes et al. Records are written as JSONL — one JSON object
// per line — so traces stream, append, and survive interrupts.
type SampleRecord struct {
	Type      string `json:"type,omitempty"` // RecordSample; empty in v1 files
	Component string `json:"comp"`
	Workload  string `json:"workload"`
	Faults    int    `json:"faults"`
	Sample    int    `json:"sample"` // index within the cell, 0..Samples-1
	Seed      uint64 `json:"seed"`   // campaign seed of the cell

	InjectCycle uint64 `json:"inject_cycle"`
	MaskBits    int    `json:"mask_bits"` // live bits after protection filtering

	// Checkpoint is the index of the golden checkpoint the run was
	// fast-forwarded from (-1 when checkpointing was disabled);
	// CyclesSkipped is the golden prefix that was not replayed.
	Checkpoint    int    `json:"checkpoint"`
	CyclesSkipped uint64 `json:"cycles_skipped"`

	Outcome    string `json:"outcome"`
	DurationNS int64  `json:"duration_ns"` // wall-clock time of the sample
}

// FateRecord is the schema-v2 forensics record paired with one sample: the
// resolved lifecycle of the injected fault mask (see internal/forensics).
// The tracer writes each cell's fate record immediately after its sample
// record, so a trace with forensics enabled alternates the two types.
type FateRecord struct {
	Type      string `json:"type"` // RecordForensics
	Component string `json:"comp"`
	Workload  string `json:"workload"`
	Faults    int    `json:"faults"`
	Sample    int    `json:"sample"`
	Seed      uint64 `json:"seed"`

	InjectCycle uint64   `json:"inject_cycle"`
	Mask        [][2]int `json:"mask"` // [row, col] of every flipped bit

	// Fate is the lifecycle class: never-touched, overwritten, refilled,
	// read-then-masked, read-then-sdc, written-back or diverged.
	Fate string `json:"fate"`
	// FirstTouchLat is cycles from injection to the first event involving
	// a corrupted bit; -1 if nothing ever touched one.
	FirstTouchLat int64 `json:"first_touch_lat"`
	// DivergeCycle is the first architectural-divergence cycle seen by the
	// lockstep shadow machine (full mode only); 0 = none observed.
	DivergeCycle uint64 `json:"diverge_cycle,omitempty"`

	Outcome string `json:"outcome"`
}

// Tracer writes sample records to an underlying stream in per-cell batches.
// WriteCell serializes and writes a whole cell's records in one call, so —
// like the results file — the trace only ever contains complete cells: a
// cancelled cell's records are simply never flushed. After the first write
// error the tracer latches it (Err) and drops further batches.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewTracer returns a tracer writing JSONL to w. A nil tracer is a valid
// no-op sink.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w}
}

// WriteCell appends one cell's records to the trace as a single write.
// fates, when non-empty, are interleaved after their sample record (matched
// by sample index; both slices must be sorted by it). Safe for concurrent
// use; a nil tracer discards the batch.
func (t *Tracer) WriteCell(recs []SampleRecord, fates []FateRecord) {
	if t == nil || len(recs) == 0 {
		return
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // Encode appends the newline JSONL needs
	fi := 0
	for i := range recs {
		recs[i].Type = RecordSample
		if err := enc.Encode(&recs[i]); err != nil {
			t.fail(err)
			return
		}
		for fi < len(fates) && fates[fi].Sample <= recs[i].Sample {
			fates[fi].Type = RecordForensics
			if err := enc.Encode(&fates[fi]); err != nil {
				t.fail(err)
				return
			}
			fi++
		}
	}
	for ; fi < len(fates); fi++ {
		fates[fi].Type = RecordForensics
		if err := enc.Encode(&fates[fi]); err != nil {
			t.fail(err)
			return
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if _, err := t.w.Write(buf.Bytes()); err != nil {
		t.err = err
	}
}

func (t *Tracer) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = err
	}
}

// Err returns the first write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// maxJSONLLine caps one JSONL record: a longer line fails the read
// instead of growing the buffer without bound.
const maxJSONLLine = 1 << 20

// newJSONLScanner returns a line scanner sized for JSONL records, shared
// by the trace and event-log readers.
func newJSONLScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxJSONLLine)
	return sc
}

// Trace is the typed content of a schema-v2 (or v1) trace stream.
type Trace struct {
	Samples []SampleRecord
	Fates   []FateRecord
	// Unknown counts records whose "type" the reader does not understand;
	// they are skipped, not errors, so newer traces stay parseable.
	Unknown int
	// Truncated counts a malformed final line, skipped rather than failing
	// the read: a process killed mid-write (the crash case this package's
	// per-cell flushing otherwise guards against at cell granularity) can
	// leave a partial last line, and every complete record before it is
	// still good data. A malformed line with records after it is still an
	// error — that is corruption, not truncation.
	Truncated int
}

// ReadTrace parses a JSONL trace stream back into sample records, e.g. for
// cmd/logparse or round-trip tests. It accepts mixed v1/v2 files: untyped
// lines are treated as samples, forensics and unknown record types are
// skipped. Blank lines are skipped; a malformed line fails with its line
// number.
func ReadTrace(r io.Reader) ([]SampleRecord, error) {
	tr, err := ReadTraceTyped(r)
	if err != nil {
		return nil, err
	}
	return tr.Samples, nil
}

// ReadTraceTyped parses a JSONL trace stream, dispatching each line on its
// "type" field. Untyped lines (schema v1) are samples; unknown types are
// counted and skipped rather than erroring, so readers built today survive
// record kinds added tomorrow. A malformed FINAL line — what a crashed or
// killed writer leaves behind — is skipped and counted in Trace.Truncated
// instead of failing the whole read; a malformed line followed by more
// data still fails with its line number.
func ReadTraceTyped(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := newJSONLScanner(r)
	line := 0
	// A parse error is held back one line: if another non-empty line
	// follows, the file is corrupt mid-stream and the held error is
	// returned; if the stream ends first, the bad line was a crash-truncated
	// tail and is skipped.
	var pendingErr error
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		if pendingErr != nil {
			return nil, pendingErr
		}
		var hdr struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(b, &hdr); err != nil {
			pendingErr = fmt.Errorf("telemetry: trace line %d: %w", line, err)
			continue
		}
		switch hdr.Type {
		case "", RecordSample:
			var rec SampleRecord
			if err := json.Unmarshal(b, &rec); err != nil {
				pendingErr = fmt.Errorf("telemetry: trace line %d: %w", line, err)
				continue
			}
			tr.Samples = append(tr.Samples, rec)
		case RecordForensics:
			var rec FateRecord
			if err := json.Unmarshal(b, &rec); err != nil {
				pendingErr = fmt.Errorf("telemetry: trace line %d: %w", line, err)
				continue
			}
			tr.Fates = append(tr.Fates, rec)
		default:
			tr.Unknown++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if pendingErr != nil {
		tr.Truncated++
	}
	return tr, nil
}
