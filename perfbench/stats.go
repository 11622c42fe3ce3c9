package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentiles are the percentiles core.cell_ms_tail may report.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile with at least 10 cells beyond
// it, falling back to the median for short cell lists.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// span is one timed call the traced run made, kept in memory and written
// as JSONL when the run ends. Parent names the span that caused it; every
// span of one run goes to that run's file.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Attr    string `json:"attr,omitempty"`
	StartUS int64  `json:"start_unix_us"`
	DurUS   int64  `json:"dur_us"`
}

// spanLog collects spans; a nil log records nothing, so untraced runs pay
// one nil check per call.
type spanLog struct {
	spans []span
}

// since records a span that started at t and ends now, and returns its
// duration whether or not the log records it.
func (l *spanLog) since(parent, name, attr string, t time.Time) time.Duration {
	d := time.Since(t)
	if l != nil {
		l.spans = append(l.spans, span{Name: name, Parent: parent, Attr: attr, StartUS: t.UnixMicro(), DurUS: d.Microseconds()})
	}
	return d
}

// write stores the spans as JSONL at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
