package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"
)

// rssSampler polls the total resident set of running processes every
// rssEvery and reports its 90th percentile as peak_rss_mb: the resident set
// the processes held for at least a tenth of their lives. The raw
// high-water mark is not used: a garbage collection can briefly hold two
// 8 MiB simulated-RAM buffers at once, which made the high-water mark of
// identical runs land on either 37 or 45 MiB. A sustained peak still shows
// every structure a change keeps resident.
type rssSampler struct {
	mu      sync.Mutex
	pids    []int
	samples []float64
	stop    chan struct{}
	done    chan struct{}
}

const rssEvery = 10 * time.Millisecond

func newRSSSampler(pids ...int) *rssSampler {
	s := &rssSampler{pids: pids, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// add starts sampling one more process.
func (s *rssSampler) add(pid int) {
	s.mu.Lock()
	s.pids = append(s.pids, pid)
	s.mu.Unlock()
}

func (s *rssSampler) sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total float64
	for _, pid := range s.pids {
		total += rssMB(pid)
	}
	if total > 0 {
		s.samples = append(s.samples, total)
	}
}

// finish stops sampling and returns the sustained peak in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return quantile(s.samples, 0.9)
}

// rssMB reads a process's current resident set in MiB (0 once it exited).
func rssMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(string(f[1]), 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
