package telemetry

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestEventLogEmitAssignsMonotonicSeq(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf, 0)
	l.now = func() time.Time { return time.Unix(0, 42) }

	e1 := l.Emit(Event{Type: EventCampaignStart, Cell: -1, Cells: 3})
	e2 := l.Emit(Event{Type: EventCellDone, Cell: 0, Samples: 10})
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("seq = %d, %d, want 1, 2", e1.Seq, e2.Seq)
	}
	if e1.TimeNS != 42 {
		t.Fatalf("TimeNS = %d, want 42", e1.TimeNS)
	}
	if l.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d, want 2", l.LastSeq())
	}

	el, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(el.Events) != 2 || el.Events[0].Type != EventCampaignStart || el.Events[1].Samples != 10 {
		t.Fatalf("round-trip = %+v", el.Events)
	}
}

func TestEventLogSinceAndWaitSince(t *testing.T) {
	l := NewEventLog(nil, 0)
	l.Emit(Event{Type: EventCellLeased, Cell: 0})
	l.Emit(Event{Type: EventCellDone, Cell: 0})

	if got := l.Since(0); len(got) != 2 {
		t.Fatalf("Since(0) = %d events, want 2", len(got))
	}
	if got := l.Since(1); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("Since(1) = %+v", got)
	}
	if got := l.Since(2); len(got) != 0 {
		t.Fatalf("Since(2) = %+v, want none", got)
	}

	// WaitSince returns immediately when events past the cursor exist.
	if got := l.WaitSince(context.Background(), 0, time.Minute); len(got) != 2 {
		t.Fatalf("WaitSince(0) = %d events", len(got))
	}
	// A waiter blocked on the tail wakes on the next Emit.
	ch := make(chan []Event, 1)
	go func() { ch <- l.WaitSince(context.Background(), 2, time.Minute) }()
	time.Sleep(10 * time.Millisecond)
	l.Emit(Event{Type: EventCampaignDone, Cell: -1})
	select {
	case got := <-ch:
		if len(got) != 1 || got[0].Type != EventCampaignDone {
			t.Fatalf("woken waiter got %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitSince never woke")
	}
	// An empty wait window returns nothing rather than blocking.
	if got := l.WaitSince(context.Background(), 99, 10*time.Millisecond); got != nil {
		t.Fatalf("timed-out wait = %+v", got)
	}
}

func TestOpenEventLogContinuesSequenceAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")

	l1, err := OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l1.Emit(Event{Type: EventCampaignStart, Cell: -1})
	l1.Emit(Event{Type: EventCellDone, Cell: 0})
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the reopened log continues after the highest persisted seq.
	l2, err := OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	ev := l2.Emit(Event{Type: EventCellDone, Cell: 1})
	if ev.Seq != 3 {
		t.Fatalf("post-restart seq = %d, want 3", ev.Seq)
	}
	l2.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	el, err := ReadEvents(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(el.Events) != 3 {
		t.Fatalf("persisted %d events, want 3", len(el.Events))
	}
	for i, e := range el.Events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: %+v", i, e.Seq, el.Events)
		}
	}
}

func TestOpenEventLogTruncatesTornTail(t *testing.T) {
	whole := `{"seq":1,"t_ns":1,"type":"campaign_start","cell":-1}` + "\n"
	for _, tc := range []struct{ name, tail string }{
		{"half line", `{"seq":2,"t_ns":2,"type":"cell_done","ce`}, // killed mid-write
		// A damaged line ending in a newline must go too, or the next append
		// strands it mid-stream and every later open fails.
		{"garbage line", "\x00\x00\x00\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "events.jsonl")
			if err := os.WriteFile(path, []byte(whole+tc.tail), 0o644); err != nil {
				t.Fatal(err)
			}

			l, err := OpenEventLog(path)
			if err != nil {
				t.Fatalf("torn tail must not be fatal: %v", err)
			}
			ev := l.Emit(Event{Type: EventCellDone, Cell: 0})
			if ev.Seq != 2 {
				t.Fatalf("seq after torn line = %d, want 2 (torn line discarded)", ev.Seq)
			}
			l.Close()

			data, _ := os.ReadFile(path)
			el, err := ReadEvents(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("reopened log must parse cleanly end to end: %v\n%s", err, data)
			}
			if len(el.Events) != 2 || el.Truncated != 0 {
				t.Fatalf("after truncate-and-append: %d events, %d truncated\n%s",
					len(el.Events), el.Truncated, data)
			}
			l2, err := OpenEventLog(path)
			if err != nil {
				t.Fatalf("second reopen: %v", err)
			}
			l2.Close()
		})
	}
}

func TestReadEventsTruncatedFinalLineTolerated(t *testing.T) {
	in := `{"seq":1,"t_ns":1,"type":"cell_leased","cell":0}` + "\n" + `{"seq":2,"bro`
	el, err := ReadEvents(strings.NewReader(in))
	if err != nil {
		t.Fatalf("truncated final line must not fail: %v", err)
	}
	if len(el.Events) != 1 || el.Truncated != 1 {
		t.Fatalf("events=%d truncated=%d", len(el.Events), el.Truncated)
	}
}

func TestReadEventsMidStreamCorruptionFatal(t *testing.T) {
	in := `{"seq":1,"t_ns":1,"type":"cell_leased","cell":0}` + "\n" +
		`garbage` + "\n" +
		`{"seq":3,"t_ns":3,"type":"cell_done","cell":0}` + "\n"
	if _, err := ReadEvents(strings.NewReader(in)); err == nil {
		t.Fatal("mid-stream corruption must fail the read")
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	ev := l.Emit(Event{Type: EventCellDone})
	if ev.Seq != 0 {
		t.Fatalf("nil log assigned seq %d", ev.Seq)
	}
	if l.Since(0) != nil || l.LastSeq() != 0 || l.Err() != nil || l.Close() != nil {
		t.Fatal("nil log methods must no-op")
	}
	if got := l.WaitSince(context.Background(), 0, time.Millisecond); got != nil {
		t.Fatalf("nil WaitSince = %+v", got)
	}

	// Campaign.Emit without an event log is a no-op, with one it counts.
	var c *Campaign
	c.Emit(Event{Type: EventCellDone})
	c = NewCampaign(nil)
	c.Emit(Event{Type: EventCellDone}) // Events nil: dropped
	c.Events = NewEventLog(nil, 0)
	c.Emit(Event{Type: EventCellDone})
	if got := c.Registry.Counter(MetricEvents).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricEvents, got)
	}
	if c.Events.LastSeq() != 1 {
		t.Fatalf("LastSeq = %d, want 1", c.Events.LastSeq())
	}
}
