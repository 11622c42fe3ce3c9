package core

import (
	"fmt"
	"math/rand/v2"
)

// ClusterSpec is the cluster geometry for spatial multi-bit faults. The
// paper uses 3x3 (quadruple-bit and larger upsets have near-zero rates in
// the technology data, so one cluster covers all modelled cardinalities).
type ClusterSpec struct {
	Rows, Cols int
}

// DefaultCluster is the paper's 3x3 cluster.
var DefaultCluster = ClusterSpec{Rows: 3, Cols: 3}

// Cell is one bit position in a component's geometry.
type Cell struct {
	Row, Col int
}

// Mask is a set of bits to flip, all inside one cluster placement. Like the
// paper's generator (and unlike the MBU encoding of Ibe et al.), patterns
// that would fit a smaller cluster are allowed: sub-clusters are part of
// the modelled population.
type Mask struct {
	Cells []Cell
}

// GenerateMask places cluster at a random position inside a rows x cols
// geometry and picks k distinct cells inside it. It panics if the geometry
// cannot fit the cluster or k exceeds the cluster capacity — configuration
// errors, not runtime conditions.
func GenerateMask(rng *rand.Rand, rows, cols, k int, cluster ClusterSpec) Mask {
	return generateMask(rng, rows, cols, k, cluster, nil)
}

// maskScratch holds the buffers generateMask draws into on the campaign's
// hot sample path: the Fisher-Yates permutation and the mask's cells.
type maskScratch struct {
	idx   []int
	cells []Cell
}

// generateMask is GenerateMask with an optional scratch holder: when sc is
// non-nil, its buffers back the Fisher-Yates permutation and the returned
// mask's cells, so a sampler draws masks without allocating. The returned
// mask then aliases sc.cells and is only valid until the scratch's next
// use.
func generateMask(rng *rand.Rand, rows, cols, k int, cluster ClusterSpec, sc *maskScratch) Mask {
	if cluster.Rows <= 0 || cluster.Cols <= 0 {
		panic("core: invalid cluster")
	}
	if k <= 0 || k > cluster.Rows*cluster.Cols {
		panic(fmt.Sprintf("core: cannot place %d faults in a %dx%d cluster", k, cluster.Rows, cluster.Cols))
	}
	if rows < cluster.Rows || cols < cluster.Cols {
		panic(fmt.Sprintf("core: %dx%d geometry cannot fit a %dx%d cluster", rows, cols, cluster.Rows, cluster.Cols))
	}
	r0 := rng.IntN(rows - cluster.Rows + 1)
	c0 := rng.IntN(cols - cluster.Cols + 1)

	// Choose k distinct cells of the cluster (partial Fisher-Yates over the
	// cluster's cell indices).
	n := cluster.Rows * cluster.Cols
	var idx []int
	var cells []Cell
	if sc != nil {
		if cap(sc.idx) < n {
			sc.idx = make([]int, n)
		}
		idx = sc.idx[:n]
		cells = sc.cells[:0]
	} else {
		idx = make([]int, n)
		cells = make([]Cell, 0, k)
	}
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		cells = append(cells, Cell{
			Row: r0 + idx[i]/cluster.Cols,
			Col: c0 + idx[i]%cluster.Cols,
		})
	}
	if sc != nil {
		sc.cells = cells // keep any grown capacity for the next draw
	}
	return Mask{Cells: cells}
}

// Apply flips every cell of the mask in the target.
func (m Mask) Apply(t Target) {
	for _, c := range m.Cells {
		t.FlipBit(c.Row, c.Col)
	}
}

// Spanning reports whether the mask actually spans the full cluster extent
// in at least one dimension (used by the sub-cluster ablation).
func (m Mask) Spanning(cluster ClusterSpec) bool {
	if len(m.Cells) == 0 {
		return false
	}
	minR, maxR := m.Cells[0].Row, m.Cells[0].Row
	minC, maxC := m.Cells[0].Col, m.Cells[0].Col
	for _, c := range m.Cells[1:] {
		if c.Row < minR {
			minR = c.Row
		}
		if c.Row > maxR {
			maxR = c.Row
		}
		if c.Col < minC {
			minC = c.Col
		}
		if c.Col > maxC {
			maxC = c.Col
		}
	}
	return maxR-minR == cluster.Rows-1 || maxC-minC == cluster.Cols-1
}
