package main

import "time"

// hostRefMS times a fixed pure-Go kernel that uses no repository code: a
// multiply-xor hash over a 256 KiB table. Its median over a few repetitions
// is host.ref_ms, which tells a slow run on a slow host apart from a slow
// program. It is a diagnostic only; no end-to-end metric is scaled by it.
func hostRefMS() float64 {
	const reps = 5
	buf := make([]uint32, 1<<16)
	var ms []float64
	var sink uint64
	for r := 0; r < reps; r++ {
		t := time.Now()
		sink ^= refKernel(buf)
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	refSink = sink
	return median(ms)
}

// refSink keeps the kernel's result live so the compiler cannot drop it.
var refSink uint64

func refKernel(buf []uint32) uint64 {
	h := uint64(1469598103934665603)
	for i := range buf {
		buf[i] = 0
	}
	for i := 0; i < 100; i++ {
		for j := range buf {
			buf[j] = buf[j]*1664525 + uint32(j) + uint32(h)
			h = (h ^ uint64(buf[(j*7)&(len(buf)-1)])) * 1099511628211
		}
	}
	return h
}
