package telemetry

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

func sampleBatch(cell string, n int) []SampleRecord {
	recs := make([]SampleRecord, n)
	for i := range recs {
		recs[i] = SampleRecord{
			Component: "L1D", Workload: cell, Faults: 2, Sample: i, Seed: 21,
			InjectCycle: uint64(1000 + i), MaskBits: 2,
			Checkpoint: i % 3, CyclesSkipped: uint64(i * 100),
			Outcome: "masked", DurationNS: int64(1e6 + i),
		}
	}
	return recs
}

func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.WriteCell(sampleBatch("sha", 4), nil)
	tr.WriteCell(sampleBatch("qsort", 2), nil)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	if got := strings.Count(buf.String(), "\n"); got != 6 {
		t.Fatalf("trace has %d lines, want 6", got)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("ReadTrace returned %d records, want 6", len(recs))
	}
	want := sampleBatch("sha", 4)[0]
	want.Type = RecordSample // stamped by WriteCell (schema v2)
	if recs[0] != want {
		t.Fatalf("first record did not round-trip: %+v", recs[0])
	}
	if recs[4].Workload != "qsort" || recs[4].Sample != 0 {
		t.Fatalf("batches interleaved or reordered: %+v", recs[4])
	}
}

func TestTracerNilAndEmpty(t *testing.T) {
	var tr *Tracer
	tr.WriteCell(sampleBatch("x", 1), nil) // must not panic
	if tr.Err() != nil {
		t.Fatal("nil tracer reported an error")
	}
	var buf bytes.Buffer
	NewTracer(&buf).WriteCell(nil, nil)
	if buf.Len() != 0 {
		t.Fatal("empty batch wrote bytes")
	}
}

type failWriter struct{ err error }

func (f *failWriter) Write([]byte) (int, error) { return 0, f.err }

func TestTracerLatchesFirstError(t *testing.T) {
	wantErr := errors.New("disk full")
	tr := NewTracer(&failWriter{err: wantErr})
	tr.WriteCell(sampleBatch("sha", 1), nil)
	tr.WriteCell(sampleBatch("sha", 1), nil)
	if !errors.Is(tr.Err(), wantErr) {
		t.Fatalf("Err() = %v, want %v", tr.Err(), wantErr)
	}
}

func TestReadTraceRejectsMalformedMidStreamLine(t *testing.T) {
	// A malformed line FOLLOWED BY more records is corruption, not crash
	// truncation, and still fails with its line number.
	_, err := ReadTrace(strings.NewReader("{\"comp\":\"L1D\"}\nnot json\n{\"comp\":\"L1I\"}\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want a line-2 parse error", err)
	}
}

// TestReadTraceToleratesTruncatedTail pins the crash-recovery contract: a
// process killed mid-write leaves a partial final line, and the reader
// skips and counts it instead of discarding every complete record before
// it.
func TestReadTraceToleratesTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	NewTracer(&buf).WriteCell(sampleBatch("sha", 3), nil)
	whole := buf.String()

	for _, tc := range []struct {
		name string
		tail string
	}{
		{"mid-json cut", `{"type":"sample","comp":"L1D","work`},
		{"cut inside a string escape", `{"type":"sample","comp":"L1D\`},
		{"binary garbage", "\x00\x1f\x7f garbage"},
		{"typed but unparseable sample", `{"type":"sample","faults":"notanint"}`},
		{"typed but unparseable forensics", `{"type":"forensics","faults":"notanint"}`},
	} {
		tr, err := ReadTraceTyped(strings.NewReader(whole + tc.tail))
		if err != nil {
			t.Fatalf("%s: err = %v, want truncated tail tolerated", tc.name, err)
		}
		if len(tr.Samples) != 3 {
			t.Fatalf("%s: %d samples survived, want 3", tc.name, len(tr.Samples))
		}
		if tr.Truncated != 1 {
			t.Fatalf("%s: Truncated = %d, want 1", tc.name, tr.Truncated)
		}
	}

	// A clean file reports zero truncation.
	tr, err := ReadTraceTyped(strings.NewReader(whole))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Truncated != 0 {
		t.Fatalf("clean trace reported Truncated = %d", tr.Truncated)
	}

	// Trailing blank lines after a truncated line do not resurrect the
	// error: blanks are not records.
	tr, err = ReadTraceTyped(strings.NewReader(whole + "{\"half\n\n\n"))
	if err != nil {
		t.Fatalf("trailing blanks after truncation: %v", err)
	}
	if tr.Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", tr.Truncated)
	}
}

// TestTracerConcurrentCells: cells flushed from concurrent grid workers
// never interleave records within a batch (run under -race in CI).
func TestTracerConcurrentCells(t *testing.T) {
	var buf safeBuffer
	tr := NewTracer(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr.WriteCell(sampleBatch(strings.Repeat("w", i+1), 5), nil)
		}(i)
	}
	wg.Wait()
	recs, err := ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 40 {
		t.Fatalf("got %d records, want 40", len(recs))
	}
	// Within the file each cell's 5 records must be contiguous and ordered.
	for i := 0; i < 40; i += 5 {
		for j := 0; j < 5; j++ {
			if recs[i+j].Workload != recs[i].Workload || recs[i+j].Sample != j {
				t.Fatalf("batch at %d interleaved: %+v", i, recs[i+j])
			}
		}
	}
}

type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func fateBatch(cell string, n int) []FateRecord {
	fates := make([]FateRecord, n)
	for i := range fates {
		fates[i] = FateRecord{
			Component: "L1D", Workload: cell, Faults: 2, Sample: i, Seed: 21,
			InjectCycle: uint64(1000 + i), Mask: [][2]int{{3, 7}, {3, 8}},
			Fate: "refilled", FirstTouchLat: int64(10 * i), Outcome: "masked",
		}
	}
	return fates
}

// TestTracerInterleavesFates: schema v2 writes each sample's forensics
// record immediately after the sample record it belongs to.
func TestTracerInterleavesFates(t *testing.T) {
	var buf bytes.Buffer
	NewTracer(&buf).WriteCell(sampleBatch("sha", 3), fateBatch("sha", 3))
	raw := buf.String()
	tr, err := ReadTraceTyped(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 3 || len(tr.Fates) != 3 || tr.Unknown != 0 {
		t.Fatalf("got %d samples, %d fates, %d unknown; want 3, 3, 0",
			len(tr.Samples), len(tr.Fates), tr.Unknown)
	}
	want := fateBatch("sha", 3)[1]
	want.Type = RecordForensics
	got := tr.Fates[1]
	if got.Fate != want.Fate || got.Sample != want.Sample ||
		got.FirstTouchLat != want.FirstTouchLat || len(got.Mask) != 2 ||
		got.Mask[0] != want.Mask[0] || got.Type != RecordForensics {
		t.Fatalf("fate record did not round-trip: %+v", got)
	}
	// Line order: sample 0, fate 0, sample 1, fate 1, ...
	lines := strings.Split(strings.TrimSpace(raw), "\n")
	if len(lines) != 6 {
		t.Fatalf("trace has %d lines, want 6", len(lines))
	}
	for i, ln := range lines {
		wantType := `"type":"sample"`
		if i%2 == 1 {
			wantType = `"type":"forensics"`
		}
		if !strings.Contains(ln, wantType) {
			t.Errorf("line %d = %s; want %s", i+1, ln, wantType)
		}
	}
}

// mixedTrace mixes untyped v1 samples, typed v2 samples, a forensics
// record, a record type no reader knows and a blank line.
const mixedTrace = `{"comp":"L1D","workload":"sha","faults":1,"sample":0,"seed":7,"outcome":"masked"}
{"type":"sample","comp":"L1D","workload":"sha","faults":1,"sample":1,"seed":7,"outcome":"sdc"}
{"type":"forensics","comp":"L1D","workload":"sha","faults":1,"sample":1,"seed":7,"fate":"read-then-sdc","first_touch_lat":42,"outcome":"sdc"}
{"type":"hologram","payload":"from the future"}

{"type":"sample","comp":"L1D","workload":"sha","faults":1,"sample":2,"seed":7,"outcome":"masked"}
`

// TestReadTraceMixedV1V2: a reader must accept a trace whose lines mix
// untyped v1 samples, typed v2 samples, forensics records and record types
// it has never heard of.
func TestReadTraceMixedV1V2(t *testing.T) {
	mixed := mixedTrace
	tr, err := ReadTraceTyped(strings.NewReader(mixed))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 3 {
		t.Fatalf("got %d samples, want 3 (v1 untyped line must count as sample)", len(tr.Samples))
	}
	if tr.Samples[0].Type != "" || tr.Samples[0].Workload != "sha" {
		t.Fatalf("v1 record mangled: %+v", tr.Samples[0])
	}
	if len(tr.Fates) != 1 || tr.Fates[0].Fate != "read-then-sdc" || tr.Fates[0].FirstTouchLat != 42 {
		t.Fatalf("forensics record mangled: %+v", tr.Fates)
	}
	if tr.Unknown != 1 {
		t.Fatalf("Unknown = %d, want 1 (unknown types are skipped, not errors)", tr.Unknown)
	}
	// The legacy sample-only reader sees the same file and just drops the
	// non-sample records.
	recs, err := ReadTrace(strings.NewReader(mixed))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("ReadTrace got %d records, want 3", len(recs))
	}
}

// TestTracerTrailingFates: fate records whose sample index exceeds every
// sample record still land in the trace (defensive; should not happen in a
// real campaign).
func TestTracerTrailingFates(t *testing.T) {
	var buf bytes.Buffer
	fates := fateBatch("sha", 5)
	NewTracer(&buf).WriteCell(sampleBatch("sha", 2), fates)
	tr, err := ReadTraceTyped(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 2 || len(tr.Fates) != 5 {
		t.Fatalf("got %d samples, %d fates; want 2, 5", len(tr.Samples), len(tr.Fates))
	}
}

// FuzzReadTraceTyped feeds arbitrary bytes to ReadTraceTyped, which reads
// campaign traces back for logparse and perfbench. Whatever the bytes,
// nothing panics, allocation stays within the line cap plus a linear cost
// per input byte, and at most a torn final line is forgiven.
func FuzzReadTraceTyped(f *testing.F) {
	var buf bytes.Buffer
	NewTracer(&buf).WriteCell(sampleBatch("sha", 3), fateBatch("sha", 3))
	whole := buf.String()
	for _, seed := range []string{
		"",
		whole,
		mixedTrace,
		whole + `{"type":"sample","comp":"L1D","work`,
		whole + `{"type":"forensics","faults":"notanint"}`,
		"{\"comp\":\"L1D\"}\nnot json\n{\"comp\":\"L1I\"}\n",
		whole + "{\"half\n\n\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr *Trace
		var err error
		grew := allocatedBy(func() { tr, err = ReadTraceTyped(bytes.NewReader(data)) })
		// Each decoded record costs well under 2 KiB, and the shortest
		// record line ("{}\n") is 3 bytes.
		if limit := 4*maxJSONLLine + 2048*uint64(len(data)); grew > limit {
			t.Fatalf("%d input bytes allocated %d bytes, want <= %d", len(data), grew, limit)
		}
		if err == nil && tr.Truncated > 1 {
			t.Fatalf("Truncated = %d, want <= 1", tr.Truncated)
		}
	})
}
