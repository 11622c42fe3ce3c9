package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/dispatch"
	"mbusim/internal/telemetry"
)

// Watch mode: `gefin -watch host:port` tails a coordinator's campaign event
// log over GET /dispatch/events and renders a live text dashboard — cell
// progress and pace, the outcome mix so far, per-worker busy/idle state and
// lease health — refreshed whenever events arrive. It is a pure observer:
// state is reconstructed entirely from the event stream, so the same model
// drives post-mortem rendering from a saved log.

// watchWorker is one worker's live state in the dashboard.
type watchWorker struct {
	cell   int    // leased cell index, -1 when idle
	spec   string // comp/workload/k-bit of the leased cell
	cells  int    // cells completed by this worker
	lastNS int64  // last event concerning this worker
	gone   bool   // worker_leave seen after the last join
}

// watchModel folds a campaign event stream into the dashboard state. It is
// pure with respect to the events (no wall clock): pace and ETA derive from
// event timestamps, so rendering is deterministic for a fixed stream.
type watchModel struct {
	lastSeq   uint64
	cellsTot  int // campaign_start grid size, 0 until seen
	cellsDone int
	samples   int
	counts    map[string]int // outcome label -> count, from cell_done
	expired   int
	retried   int
	workers   map[string]*watchWorker
	done      bool
	detail    string // campaign_done detail (terminal error, if any)
	firstNS   int64  // first event timestamp
	lastNS    int64  // latest event timestamp
}

func newWatchModel() *watchModel {
	return &watchModel{counts: make(map[string]int), workers: make(map[string]*watchWorker)}
}

// apply folds one event into the model.
func (m *watchModel) apply(ev telemetry.Event) {
	if ev.Seq > m.lastSeq {
		m.lastSeq = ev.Seq
	}
	if m.firstNS == 0 {
		m.firstNS = ev.TimeNS
	}
	if ev.TimeNS > m.lastNS {
		m.lastNS = ev.TimeNS
	}
	var w *watchWorker
	if ev.Worker != "" {
		w = m.workers[ev.Worker]
		if w == nil {
			w = &watchWorker{cell: -1}
			m.workers[ev.Worker] = w
		}
		w.lastNS = ev.TimeNS
		w.gone = false
	}
	switch ev.Type {
	case telemetry.EventCampaignStart:
		m.cellsTot = ev.Cells
	case telemetry.EventCellLeased:
		w.cell = ev.Cell
		w.spec = fmt.Sprintf("%s/%s/%d-bit", ev.Comp, ev.Workload, ev.Faults)
	case telemetry.EventCellDone:
		m.cellsDone++
		m.samples += ev.Samples
		for k, n := range ev.Counts {
			m.counts[k] += n
		}
		if w != nil {
			w.cells++
			if w.cell == ev.Cell {
				w.cell = -1
			}
		}
	case telemetry.EventLeaseExpired:
		m.expired++
		if w != nil && w.cell == ev.Cell {
			w.cell = -1
		}
	case telemetry.EventCellRetried:
		m.retried++
	case telemetry.EventWorkerLeave:
		if w != nil {
			w.cell = -1
			w.gone = true
		}
	case telemetry.EventCampaignDone:
		m.done = true
		m.detail = ev.Detail
		if ev.Cells > m.cellsDone {
			m.cellsDone = ev.Cells
		}
	}
}

// renderWatch renders the dashboard snapshot: a header line with progress,
// pace, lease health and ETA, the outcome mix, then one line per worker.
func renderWatch(m *watchModel) string {
	var b strings.Builder
	elapsed := time.Duration(m.lastNS - m.firstNS)
	fmt.Fprintf(&b, "watch: %d", m.cellsDone)
	if m.cellsTot > 0 {
		fmt.Fprintf(&b, "/%d", m.cellsTot)
	}
	fmt.Fprintf(&b, " cells, %d samples", m.samples)
	rate := 0.0
	if secs := elapsed.Seconds(); secs > 0 && m.cellsDone > 0 {
		rate = float64(m.cellsDone) / secs
		fmt.Fprintf(&b, " (%.2f cells/s)", rate)
	}
	if m.expired > 0 || m.retried > 0 {
		fmt.Fprintf(&b, ", %d leases expired, %d cells retried", m.expired, m.retried)
	}
	switch {
	case m.done && m.detail != "":
		fmt.Fprintf(&b, " | FAILED: %s", m.detail)
	case m.done:
		b.WriteString(" | complete")
	case rate > 0 && m.cellsTot > m.cellsDone:
		eta := time.Duration(float64(m.cellsTot-m.cellsDone) / rate * float64(time.Second))
		fmt.Fprintf(&b, " | eta %v", eta.Round(time.Second))
	}
	b.WriteByte('\n')
	if m.samples > 0 {
		b.WriteString("  outcomes:")
		for _, e := range core.Effects() {
			if n := m.counts[e.Label()]; n > 0 {
				fmt.Fprintf(&b, " %s %.1f%%", e.Label(), 100*float64(n)/float64(m.samples))
			}
		}
		b.WriteByte('\n')
	}
	ids := make([]string, 0, len(m.workers))
	live := 0
	for id, w := range m.workers {
		ids = append(ids, id)
		if !w.gone {
			live++
		}
	}
	sort.Strings(ids)
	if len(ids) > 0 {
		fmt.Fprintf(&b, "  workers: %d live\n", live)
	}
	for _, id := range ids {
		w := m.workers[id]
		state := "idle"
		switch {
		case w.gone:
			state = "gone"
		case w.cell >= 0:
			state = fmt.Sprintf("busy cell %d (%s)", w.cell, w.spec)
		}
		fmt.Fprintf(&b, "    %-20s %-40s %d cells done\n", id, state, w.cells)
	}
	return b.String()
}

// runWatch drives the live dashboard: long-poll the coordinator's event
// stream from the last seen sequence number, fold, render. Exits 0 when the
// campaign ends, 130 on SIGINT/SIGTERM, 1 when the coordinator stays
// unreachable (a finished coordinator closing its port while we watch a
// complete campaign is normal exit, not an error).
func runWatch(stdout, stderr io.Writer, url string) int {
	url = serviceURL(url)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	m := newWatchModel()
	client := &http.Client{Timeout: 30 * time.Second}
	fmt.Fprintf(stderr, "watch: streaming %s%s\n", url, dispatch.PathEvents)
	const maxFailures = 10
	failures := 0
	for {
		evs, err := fetchEvents(ctx, client, url, m.lastSeq)
		if ctx.Err() != nil {
			return 130
		}
		if err != nil {
			failures++
			if failures >= maxFailures {
				fmt.Fprintf(stderr, "watch: coordinator unreachable: %v\n", err)
				return 1
			}
			select {
			case <-ctx.Done():
				return 130
			case <-time.After(time.Second):
			}
			continue
		}
		failures = 0
		for _, ev := range evs {
			m.apply(ev)
		}
		if len(evs) > 0 {
			fmt.Fprint(stdout, renderWatch(m))
		}
		if m.done {
			return 0
		}
	}
}

// fetchEvents performs one long-poll against the events endpoint and decodes
// the JSONL body.
func fetchEvents(ctx context.Context, client *http.Client, url string, since uint64) ([]telemetry.Event, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s%s?since=%d&wait=10s", url, dispatch.PathEvents, since), nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("watch: %s: HTTP %d", dispatch.PathEvents, resp.StatusCode)
	}
	// ReadEvents skips a torn final line; the cursor stays before it, so
	// the next poll fetches that event again.
	el, err := telemetry.ReadEvents(resp.Body)
	if err != nil {
		return nil, err
	}
	return el.Events, nil
}
