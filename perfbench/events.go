package main

import (
	"fmt"
	"io"
	"sort"

	"mbusim/internal/telemetry"
)

// dispatchStats is what the campaign service's event log says about a
// burst of campaigns worked by the fleet.
type dispatchStats struct {
	// firstLeased and lastDone bound the burst's timed region (unix ns).
	firstLeased, lastDone int64
	samples               int
	cellsDone             int
	// cellMS is each completed cell's lease-to-done time.
	cellMS []float64
	// leaseGapMS is the mean time a worker spent between submitting one
	// cell and leasing the next.
	leaseGapMS float64
	heartbeats int
	retries    int
	expired    int
	// troubled names the cells that expired or were retried.
	troubled map[string]bool
}

// readEvents parses a JSONL event stream as served by /dispatch/events.
// The stream is served whole, so a torn final line is an error here.
func readEvents(r io.Reader) ([]telemetry.Event, error) {
	el, err := telemetry.ReadEvents(r)
	if err != nil {
		return nil, err
	}
	if el.Truncated > 0 {
		return nil, fmt.Errorf("event log: torn final line")
	}
	return el.Events, nil
}

// parseDispatch folds the events of the given campaigns into dispatch
// statistics. Events of other campaigns (the warm-up) are ignored.
func parseDispatch(evs []telemetry.Event, campaigns map[string]bool) dispatchStats {
	st := dispatchStats{troubled: map[string]bool{}}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	type cellID struct {
		campaign string
		cell     int
	}
	leased := map[cellID]int64{}
	lastSubmit := map[string]int64{} // worker -> its latest cell_done
	var gaps []float64
	for _, ev := range evs {
		if !campaigns[ev.Campaign] {
			continue
		}
		id := cellID{ev.Campaign, ev.Cell}
		switch ev.Type {
		case telemetry.EventCellLeased:
			if st.firstLeased == 0 || ev.TimeNS < st.firstLeased {
				st.firstLeased = ev.TimeNS
			}
			leased[id] = ev.TimeNS
			if t, ok := lastSubmit[ev.Worker]; ok {
				gaps = append(gaps, float64(ev.TimeNS-t)/1e6)
				delete(lastSubmit, ev.Worker)
			}
		case telemetry.EventCellDone:
			st.lastDone = max(st.lastDone, ev.TimeNS)
			st.samples += ev.Samples
			st.cellsDone++
			if t, ok := leased[id]; ok {
				st.cellMS = append(st.cellMS, float64(ev.TimeNS-t)/1e6)
			}
			lastSubmit[ev.Worker] = ev.TimeNS
		case telemetry.EventHeartbeat:
			st.heartbeats++
		case telemetry.EventCellRetried:
			st.retries++
			st.troubled[fmt.Sprintf("%s/%d", ev.Campaign, ev.Cell)] = true
		case telemetry.EventLeaseExpired:
			st.expired++
			st.troubled[fmt.Sprintf("%s/%d", ev.Campaign, ev.Cell)] = true
		}
	}
	st.leaseGapMS = mean(gaps)
	return st
}

// artifactSeconds sums, over the warm-up cells, the time from a cell's
// lease to the service serving that workload's checkpoint artifact: the
// derive-and-serve latency the worker waits on before its first sample.
func artifactSeconds(evs []telemetry.Event, campaigns map[string]bool) float64 {
	leasedAt := map[string]int64{} // workload -> first warm-up lease
	var total float64
	for _, ev := range evs {
		switch {
		case ev.Type == telemetry.EventCellLeased && campaigns[ev.Campaign]:
			if _, ok := leasedAt[ev.Workload]; !ok {
				leasedAt[ev.Workload] = ev.TimeNS
			}
		case ev.Type == telemetry.EventArtifactFetch:
			if t, ok := leasedAt[ev.Workload]; ok {
				total += float64(ev.TimeNS-t) / 1e9
				delete(leasedAt, ev.Workload)
			}
		}
	}
	return total
}
