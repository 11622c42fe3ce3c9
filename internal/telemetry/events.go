package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
	"unicode"
)

// Campaign event log: a durable, ordered record of everything that happens
// to a campaign — cells leased and completed, workers joining and dying,
// leases expiring, retries burning — persisted as JSONL next to the
// ResultSet. Where the metrics registry answers "how much, right now", the
// event log answers "what happened, in what order": it is the input to the
// live -watch dashboard (streamed over /dispatch/events), to logparse
// -events post-mortems, and to any analysis that needs per-cell timelines
// (e.g. ranking cells by latency or reconstructing a chaos run's
// expiry/retry story after the processes are gone).

// Event types, in rough lifecycle order.
const (
	EventCampaignStart = "campaign_start"
	EventWorkerJoin    = "worker_join"
	EventCellLeased    = "cell_leased"
	EventHeartbeat     = "heartbeat"
	EventArtifactFetch = "artifact_fetch"
	EventCellDone      = "cell_done"
	EventLeaseExpired  = "lease_expired"
	EventCellRetried   = "cell_retried"
	EventWorkerLeave   = "worker_leave"
	EventCampaignDone  = "campaign_done"

	// Campaign-service lifecycle (multi-campaign coordinator): a campaign
	// admitted into the queue, and every subsequent state transition
	// (running, paused, cancelled, failed — Detail carries the new state).
	EventCampaignQueued = "campaign_queued"
	EventCampaignState  = "campaign_state"
)

// Event is one line of the campaign event log. Seq is assigned by the
// EventLog and is strictly monotonic across the life of one log file,
// including coordinator restarts (OpenEventLog continues after the highest
// persisted sequence number); consumers use it as the resume cursor for
// /dispatch/events?since=<seq>.
type Event struct {
	Seq    uint64 `json:"seq"`
	TimeNS int64  `json:"t_ns"` // unix nanoseconds at emission
	Type   string `json:"type"`

	// Campaign is the campaign-service campaign id the event belongs to;
	// empty on local runs, where the whole log is one campaign, and on the
	// campaign_start a one-shot -serve writes before submitting its grid.
	Campaign string `json:"campaign,omitempty"`
	// Tenant is the submitting tenant, on campaign-service lifecycle events.
	Tenant string `json:"tenant,omitempty"`
	// Worker names the worker the event concerns, when any.
	Worker string `json:"worker,omitempty"`
	// Cell is the coordinator's cell index; -1 for events not about a cell.
	Cell int `json:"cell"`
	// Comp/Workload/Faults identify the cell's spec, on cell-scoped events.
	Comp     string `json:"comp,omitempty"`
	Workload string `json:"workload,omitempty"`
	Faults   int    `json:"faults,omitempty"`
	// Lease is the lease id, on lease-scoped events.
	Lease uint64 `json:"lease,omitempty"`
	// Retries is the cell's retry count after a cell_retried event.
	Retries int `json:"retries,omitempty"`

	// Cells is the grid size on campaign_start / cells completed on
	// campaign_done.
	Cells int `json:"cells,omitempty"`
	// Samples is the classified sample count on cell_done.
	Samples int `json:"samples,omitempty"`
	// Counts is the cell's outcome mix on cell_done (label -> count).
	Counts map[string]int `json:"counts,omitempty"`
	// Detail is freeform context: the expiry reason, an artifact key, the
	// campaign's terminal error.
	Detail string `json:"detail,omitempty"`
}

// EventLog assigns sequence numbers, keeps every event of this process in
// memory for streaming (Since/WaitSince), and appends each one as a single
// JSONL write to an optional backing writer — one Write call per line, so
// an O_APPEND file never interleaves lines even with a concurrent writer,
// and a crash can only ever tear the final line (which ReadEvents and
// OpenEventLog tolerate). A nil *EventLog discards everything, matching
// the package's disabled-telemetry idiom.
type EventLog struct {
	mu      sync.Mutex
	w       io.Writer
	closer  io.Closer
	events  []Event
	nextSeq uint64
	err     error
	changed chan struct{} // closed on every append, then replaced

	// now is the event clock, swappable so tests pin timestamps.
	now func() time.Time
}

// NewEventLog returns a log whose first event gets sequence number after+1,
// persisting to w (nil: in-memory only — the coordinator still streams it).
func NewEventLog(w io.Writer, after uint64) *EventLog {
	return &EventLog{w: w, nextSeq: after, changed: make(chan struct{}), now: time.Now}
}

// OpenEventLog opens path for durable appending, creating it if absent. An
// existing file is scanned so new events continue the sequence after the
// highest persisted one, and a crash-torn partial final line is cut off so
// the next append starts at a line boundary (mid-file corruption is still
// an error — that is a damaged log, not an interrupted one). The returned
// log owns the file; Close it when the campaign ends.
func OpenEventLog(path string) (*EventLog, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	evs, err := ReadEvents(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("telemetry: event log %s: %w", path, err)
	}
	var last uint64
	if n := len(evs.Events); n > 0 {
		last = evs.Events[n-1].Seq
	}
	f, err := ReopenJSONL(path, data, evs.Truncated > 0)
	if err != nil {
		return nil, err
	}
	l := NewEventLog(f, last)
	l.closer = f
	return l, nil
}

// ReopenJSONL opens the JSONL file at path, whose contents are data, for
// appending right after the last line a reader accepted. torn says the
// reader dropped a malformed final line: that line goes too, or the next
// append would strand it mid-stream, where every later read rejects it as
// corruption. Anything after the last accepted line is cut, and a kept
// final line missing its newline gets one.
func ReopenJSONL(path string, data []byte, torn bool) (*os.File, error) {
	keep := len(bytes.TrimRightFunc(data, unicode.IsSpace))
	if torn {
		keep = bytes.LastIndexByte(data[:keep], '\n') + 1
	} else if keep < len(data) && data[keep] == '\n' {
		keep++
	}
	if keep < len(data) {
		if err := os.Truncate(path, int64(keep)); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if keep > 0 && data[keep-1] != '\n' {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// Emit assigns the next sequence number and timestamp to ev, records it,
// persists it and wakes every waiting streamer. It returns the completed
// event. A nil log returns ev unchanged.
func (l *EventLog) Emit(ev Event) Event {
	if l == nil {
		return ev
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextSeq++
	ev.Seq = l.nextSeq
	ev.TimeNS = l.now().UnixNano()
	l.events = append(l.events, ev)
	if l.w != nil && l.err == nil {
		line, err := json.Marshal(&ev)
		if err == nil {
			line = append(line, '\n')
			_, err = l.w.Write(line)
		}
		if err != nil {
			l.err = err
		}
	}
	close(l.changed)
	l.changed = make(chan struct{})
	return ev
}

// Since returns a copy of every in-memory event with Seq > after. Events
// persisted by an earlier process (before a restart + resume) are on disk,
// not in memory; stream consumers that need them read the file.
func (l *EventLog) Since(after uint64) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Binary-search-free: events are append-only and Seq-ordered, so scan
	// back for the cut point (waiters almost always want the tail).
	i := len(l.events)
	for i > 0 && l.events[i-1].Seq > after {
		i--
	}
	out := make([]Event, len(l.events)-i)
	copy(out, l.events[i:])
	return out
}

// WaitSince is Since with a long-poll: when no event past the cursor exists
// yet, it blocks until one arrives, wait elapses, or ctx is cancelled, then
// returns whatever is available (possibly nothing — the caller re-polls).
func (l *EventLog) WaitSince(ctx context.Context, after uint64, wait time.Duration) []Event {
	if l == nil {
		return nil
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		l.mu.Lock()
		changed := l.changed
		n := len(l.events)
		more := n > 0 && l.events[n-1].Seq > after
		l.mu.Unlock()
		if more {
			return l.Since(after)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-deadline.C:
			return nil
		case <-changed:
		}
	}
}

// LastSeq returns the sequence number of the most recent event (0 before
// the first).
func (l *EventLog) LastSeq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Err returns the first persistence error, if any. Streaming and in-memory
// recording continue past a write error; only the file stops growing.
func (l *EventLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close closes the backing file, when the log owns one (OpenEventLog).
func (l *EventLog) Close() error {
	if l == nil || l.closer == nil {
		return nil
	}
	return l.closer.Close()
}

// EventList is the parsed content of an event-log stream.
type EventList struct {
	Events []Event
	// Truncated counts a malformed final line — what a killed writer leaves
	// behind — skipped rather than failing the read, exactly like the
	// injection-trace reader's semantics.
	Truncated int
}

// ReadEvents parses a JSONL event log. Blank lines are skipped. A malformed
// FINAL line is tolerated and counted in Truncated; a malformed line with
// more data after it is corruption and fails with its line number.
func ReadEvents(r io.Reader) (*EventList, error) {
	el := &EventList{}
	sc := newJSONLScanner(r)
	line := 0
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
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			pendingErr = fmt.Errorf("event log line %d: %w", line, err)
			continue
		}
		el.Events = append(el.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if pendingErr != nil {
		el.Truncated++
	}
	return el, nil
}
