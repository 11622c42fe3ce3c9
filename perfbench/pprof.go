package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// selfPackages are the buckets self.<pkg> reports: the repository's
// packages on the campaign and serving paths, then net/http, the garbage
// collector, the rest of the runtime, and everything else.
var selfPackages = []string{
	"cpu", "cache", "tlb", "vm", "mem", "kernel", "sim", "workloads", "core",
	"forensics", "telemetry", "dispatch", "wire", "net_http", "runtime_gc",
	"runtime_other", "other",
}

// gcFramePrefixes mark a runtime sample as garbage-collector work when any
// frame of its stack starts with one of them.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone", "runtime.(*gcWork)",
	"runtime.(*mheap).reclaim", "runtime.deductSweepCredit",
}

// selfShares decodes a gzipped runtime/pprof CPU profile and returns each
// bucket's share of on-CPU time in percent, attributing every sample to the
// package of its innermost frame (self time). It reads only the fields it
// needs from profile.proto, so it depends on nothing outside the standard
// library.
func selfShares(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(selfPackages))
	for _, b := range selfPackages {
		out[b] = 0
	}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		out[p.bucket(s.locs)] += v
	}
	if total == 0 {
		return nil, errors.New("pprof: profile holds no CPU samples")
	}
	for b := range out {
		out[b] = 100 * out[b] / total
	}
	return out, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

// frames returns the function names of one location, innermost first.
func (p *profile) frames(loc uint64) []string {
	var out []string
	for _, f := range p.locs[loc] {
		if i := p.funcs[f]; i >= 0 && int(i) < len(p.strs) {
			out = append(out, p.strs[i])
		}
	}
	return out
}

// bucket classifies a sample by its innermost frame.
func (p *profile) bucket(stack []uint64) string {
	leaf := p.frames(stack[0])
	if len(leaf) == 0 {
		return "other"
	}
	pkg := funcPackage(leaf[0])
	switch {
	case strings.HasPrefix(pkg, "mbusim/internal/"):
		name := strings.TrimPrefix(pkg, "mbusim/internal/")
		for _, b := range selfPackages {
			if b == name {
				return b
			}
		}
		return "other"
	case pkg == "net/http":
		return "net_http"
	case pkg == "runtime":
		for _, loc := range stack {
			for _, fn := range p.frames(loc) {
				for _, pre := range gcFramePrefixes {
					if strings.HasPrefix(fn, pre) {
						return "runtime_gc"
					}
				}
			}
		}
		return "runtime_other"
	}
	return "other"
}

// funcPackage returns the import path of a symbol such as
// "mbusim/internal/cpu.(*Core).Cycle" or "runtime.mallocgc".
func funcPackage(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// decodeProfile reads the sample, location, function and string-table
// fields of a profile.proto message.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, sub []byte) error {
		if wire != 2 {
			return nil
		}
		switch field {
		case 2: // Sample
			var s profSample
			err := eachField(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, sb)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, sb); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(sub, func(f, w int, v uint64, sb []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2: // Line
					return eachField(sb, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 && lw == 0 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = fns
		case 5: // Function
			var id uint64
			name := int64(-1)
			err := eachField(sub, func(f, w int, v uint64, _ []byte) error {
				if w == 0 {
					switch f {
					case 1:
						id = v
					case 2:
						name = int64(v)
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field in either packed (wire 2)
// or unpacked (wire 0) encoding.
func appendVarints(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := varint(sub)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling f with each field's number,
// wire type, varint value (wire 0) or payload (wire 2).
func eachField(b []byte, f func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := f(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
