package apsp

import (
	"math"
	"runtime"
	"sync"

	"kor/internal/graph"
)

// MatrixOracle holds the full |V|² τ/σ score tables of the paper's
// pre-processing, plus the parent tables the fill sweeps produce anyway, so
// paths materialize as O(length) table walks instead of fresh sweeps.
// Memory is 5·|V|²·8 bytes (4 score tables + 2 packed int32 parent tables);
// it suits point-of-interest graphs ("the number of points of interest
// within a city is not large"). Use LazyOracle for the synthetic road
// networks.
//
// The tables are immutable after construction, so a MatrixOracle is safe
// for concurrent use.
type MatrixOracle struct {
	g *graph.Graph
	n int
	// Row-major [from*n+to] tables.
	tauObj []float64
	tauBud []float64
	sigObj []float64
	sigBud []float64
	// Parent tables: tauPar[from*n+to] is to's predecessor on τ(from,to)
	// (noParent at to == from or unreachable).
	tauPar []int32
	sigPar []int32
}

// NewMatrixOracle fills the tables with one forward two-criteria Dijkstra
// per node, parallelized across CPUs. The resulting scores are exactly the
// Floyd-Warshall scores (verified against floydWarshall in tests).
func NewMatrixOracle(g *graph.Graph) *MatrixOracle {
	n := g.NumNodes()
	o := &MatrixOracle{
		g: g, n: n,
		tauObj: make([]float64, n*n),
		tauBud: make([]float64, n*n),
		sigObj: make([]float64, n*n),
		sigBud: make([]float64, n*n),
		tauPar: make([]int32, n*n),
		sigPar: make([]int32, n*n),
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	rows := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for from := range rows {
				row := from * n
				dijkstra(g, graph.NodeID(from), ByObjective, false).
					fillDense(o.tauObj[row:row+n], o.tauBud[row:row+n], o.tauPar[row:row+n])
				dijkstra(g, graph.NodeID(from), ByBudget, false).
					fillDense(o.sigBud[row:row+n], o.sigObj[row:row+n], o.sigPar[row:row+n])
			}
		}()
	}
	for from := 0; from < n; from++ {
		rows <- from
	}
	close(rows)
	wg.Wait()
	return o
}

// MinObjective returns the scores of τ(from,to).
func (o *MatrixOracle) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	i := int(from)*o.n + int(to)
	os := o.tauObj[i]
	if math.IsInf(os, 1) {
		return 0, 0, false
	}
	return os, o.tauBud[i], true
}

// MinBudget returns the scores of σ(from,to).
func (o *MatrixOracle) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	i := int(from)*o.n + int(to)
	bs := o.sigBud[i]
	if math.IsInf(bs, 1) {
		return 0, 0, false
	}
	return o.sigObj[i], bs, true
}

// MinObjectivePath walks τ(from,to) out of the parent table.
func (o *MatrixOracle) MinObjectivePath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	if math.IsInf(o.tauObj[int(from)*o.n+int(to)], 1) {
		return nil, false
	}
	return o.walkRow(o.tauPar, from, to)
}

// MinBudgetPath walks σ(from,to) out of the parent table.
func (o *MatrixOracle) MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	if math.IsInf(o.sigBud[int(from)*o.n+int(to)], 1) {
		return nil, false
	}
	return o.walkRow(o.sigPar, from, to)
}

// walkRow follows row from's parent chain back from to, returning the path
// from→to inclusive.
func (o *MatrixOracle) walkRow(par []int32, from, to graph.NodeID) ([]graph.NodeID, bool) {
	row := par[int(from)*o.n : int(from+1)*o.n]
	var rev []graph.NodeID
	for v := to; ; {
		rev = append(rev, v)
		if v == from {
			break
		}
		p := row[v]
		if p == noParent {
			return nil, false
		}
		v = graph.NodeID(p)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// IndexedPaths marks the path methods as table walks (see apsp.Indexed).
func (o *MatrixOracle) IndexedPaths() bool { return true }

// MemoryBytes reports the table footprint, used by tooling to warn before
// building dense tables over large graphs.
func (o *MatrixOracle) MemoryBytes() int64 { return int64(o.n) * int64(o.n) * 8 * 5 }
