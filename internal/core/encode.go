package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// resultSetJSON is the serialised form of a ResultSet: a flat list of cell
// results (map keys are structs, which JSON cannot encode directly).
type resultSetJSON struct {
	Results []*Result
}

// MarshalJSON encodes the result set as a flat result list.
func (rs *ResultSet) MarshalJSON() ([]byte, error) {
	enc := resultSetJSON{Results: make([]*Result, 0, len(rs.Cells))}
	for _, k := range rs.sortedKeys() {
		enc.Results = append(enc.Results, rs.Cells[k])
	}
	return json.Marshal(enc)
}

// UnmarshalJSON decodes a flat result list back into the cell map,
// rejecting any result that fails Result.Check and a second result for a
// cell already loaded: Save never writes one, so the file is corrupt or
// hand-edited and neither entry can be trusted over the other.
func (rs *ResultSet) UnmarshalJSON(data []byte) error {
	var enc resultSetJSON
	if err := json.Unmarshal(data, &enc); err != nil {
		return err
	}
	rs.Cells = make(map[CellKey]*Result, len(enc.Results))
	for i, r := range enc.Results {
		if err := r.Check(); err != nil {
			return fmt.Errorf("result %d: %w", i, err)
		}
		if k := r.Spec.Key(); rs.Cells[k] != nil {
			return fmt.Errorf("result %d: %s/%s/%d-bit: duplicate cell", i, k.Component, k.Workload, k.Faults)
		}
		rs.Add(r)
	}
	return nil
}

// Check reports whether the result can stand for its cell: it exists, no
// count is negative, and the counts sum to the spec's sample count. A
// results file and a worker's submission both arrive from outside the
// process, and a result failing Check would skew every figure computed
// from its cell.
func (r *Result) Check() error {
	if r == nil {
		return errors.New("null result")
	}
	n, ok := 0, true
	for _, c := range r.Counts {
		ok = ok && c >= 0 && c <= r.Spec.Samples-n // n cannot overflow while ok holds
		n += c
	}
	if !ok || n != r.Spec.Samples {
		return fmt.Errorf("%s/%s/%d-bit: counts %v are negative or do not sum to %d samples",
			r.Spec.Component, r.Spec.Workload, r.Spec.Faults, r.Counts, r.Spec.Samples)
	}
	return nil
}

// Encode returns the canonical serialized form of the result set: indented
// JSON with cells in sorted key order. Two result sets holding the same
// cells encode byte-identically regardless of insertion order — the
// property the resume-equivalence guarantee is stated in.
func (rs *ResultSet) Encode() ([]byte, error) {
	return json.MarshalIndent(rs, "", " ")
}

// fsync is the file synchronization call Save issues, indirected so tests
// can assert the write path actually syncs (there is no portable way to
// observe durability after the fact).
var fsync = func(f *os.File) error { return f.Sync() }

// Save writes the canonical encoding to path atomically AND durably: the
// bytes go to a temporary file in the same directory, the temp file is
// fsynced before the rename (otherwise a power loss can replay the rename
// without the data, leaving an empty-but-renamed results file), and the
// directory is fsynced after it so the rename itself survives. A crash at
// any point leaves either the previous complete file or the new one, never
// a truncated hybrid. Campaign runners call it after every completed cell.
func (rs *ResultSet) Save(path string) error {
	data, err := rs.Encode()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := fsync(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return fsync(d)
}

// LoadResultSet reads a results file written by Save (or any marshalled
// ResultSet). A file that does not decode, or holds a result failing
// Result.Check, is an error naming the file.
func LoadResultSet(path string) (*ResultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rs := NewResultSet()
	if err := json.Unmarshal(data, rs); err != nil {
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return rs, nil
}

// Covers reports whether the set already holds a result for the spec's cell
// produced by an equivalent campaign (Spec.Equivalent: every
// outcome-affecting field matches after normalization, not just the cell
// key). Seeded determinism then guarantees re-running the cell would
// reproduce the stored counts exactly, so a resumed campaign may skip it.
// A stored result for the same cell under a different cluster geometry,
// timeout, spanning mode or protection scheme does NOT cover the spec —
// those knobs change the outcome distribution, and resuming over them
// would silently keep stale counts.
func (rs *ResultSet) Covers(spec Spec) bool {
	r, ok := rs.Cells[spec.Key()]
	return ok && r.Spec.Equivalent(spec)
}

// Pending filters a grid down to the cells the set does not cover — the
// work remaining for a resumed campaign. The relative order of specs is
// preserved.
func (rs *ResultSet) Pending(specs []Spec) []Spec {
	var out []Spec
	for _, s := range specs {
		if !rs.Covers(s) {
			out = append(out, s)
		}
	}
	return out
}

func (rs *ResultSet) sortedKeys() []CellKey {
	keys := make([]CellKey, 0, len(rs.Cells))
	for k := range rs.Cells {
		keys = append(keys, k)
	}
	// Deterministic order: component, workload, faults.
	sort.Slice(keys, func(i, j int) bool { return lessKey(keys[i], keys[j]) })
	return keys
}

func lessKey(a, b CellKey) bool {
	if a.Component != b.Component {
		return a.Component < b.Component
	}
	if a.Workload != b.Workload {
		return a.Workload < b.Workload
	}
	return a.Faults < b.Faults
}
