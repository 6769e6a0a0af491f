package apsp

import (
	"math"

	"kor/internal/graph"
	"kor/internal/pqueue"
)

// Reference implementations the oracles and the sweep kernel are verified
// against. Both are test-only: Floyd-Warshall is O(|V|³), and the dense
// Dijkstra allocates and fills five |V|-long arrays per sweep, which is
// exactly the cost the slot-indexed kernel in dijkstra.go avoids.

// floydTables is the textbook Floyd-Warshall the paper cites for its
// pre-processing, run once per metric with lexicographic (primary,
// secondary) relaxation. It exists as the reference implementation the
// Dijkstra-based oracles are verified against; at O(|V|³) it is only run on
// small graphs in tests.
type floydTables struct {
	n         int
	primary   []float64
	secondary []float64
}

// floydWarshall computes all-pairs optimal scores under metric m.
func floydWarshall(g *graph.Graph, m Metric) *floydTables {
	n := g.NumNodes()
	t := &floydTables{
		n:         n,
		primary:   make([]float64, n*n),
		secondary: make([]float64, n*n),
	}
	for i := range t.primary {
		t.primary[i] = math.Inf(1)
		t.secondary[i] = math.Inf(1)
	}
	for v := 0; v < n; v++ {
		t.primary[v*n+v] = 0
		t.secondary[v*n+v] = 0
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		for _, e := range g.Out(v) {
			var p, s float64
			if m == ByObjective {
				p, s = e.Objective, e.Budget
			} else {
				p, s = e.Budget, e.Objective
			}
			i := int(v)*n + int(e.To)
			if p < t.primary[i] || (p == t.primary[i] && s < t.secondary[i]) {
				t.primary[i] = p
				t.secondary[i] = s
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			ik := i*n + k
			if math.IsInf(t.primary[ik], 1) {
				continue
			}
			for j := 0; j < n; j++ {
				kj := k*n + j
				if math.IsInf(t.primary[kj], 1) {
					continue
				}
				ij := i*n + j
				p := t.primary[ik] + t.primary[kj]
				s := t.secondary[ik] + t.secondary[kj]
				if p < t.primary[ij] || (p == t.primary[ij] && s < t.secondary[ij]) {
					t.primary[ij] = p
					t.secondary[ij] = s
				}
			}
		}
	}
	return t
}

// at returns (primary, secondary, reachable) for the pair (i, j).
func (t *floydTables) at(i, j graph.NodeID) (float64, float64, bool) {
	p := t.primary[int(i)*t.n+int(j)]
	if math.IsInf(p, 1) {
		return 0, 0, false
	}
	return p, t.secondary[int(i)*t.n+int(j)], true
}

// denseSweep is a sweep in the dense layout: one primary, secondary and
// parent entry per graph node, +Inf scores for unreached nodes.
type denseSweep struct {
	primary   []float64
	secondary []float64
	parent    []int32
}

// denseDijkstra is the textbook two-criteria Dijkstra over dense per-node
// arrays and the generic binary heap, truncated at a primary-metric bound.
// The slot-indexed kernel must reproduce its reached set, scores and parents
// bit for bit.
func denseDijkstra(g *graph.Graph, root graph.NodeID, m Metric, reverse bool, bound float64) *denseSweep {
	n := g.NumNodes()
	s := &denseSweep{
		primary:   make([]float64, n),
		secondary: make([]float64, n),
		parent:    make([]int32, n),
	}
	for i := range s.primary {
		s.primary[i] = math.Inf(1)
		s.secondary[i] = math.Inf(1)
		s.parent[i] = noParent
	}
	s.primary[root] = 0
	s.secondary[root] = 0

	adj := g.Out
	if reverse {
		adj = g.In
	}
	h := pqueue.NewWithCapacity(n, itemLess)
	h.Push(dijkstraItem{node: root})
	done := make([]bool, n)
	for !h.Empty() {
		it := h.Pop()
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, e := range adj(it.node) {
			var p, sec float64
			if m == ByObjective {
				p, sec = it.primary+e.Objective, it.secondary+e.Budget
			} else {
				p, sec = it.primary+e.Budget, it.secondary+e.Objective
			}
			v := e.To
			if p > bound {
				continue
			}
			if p < s.primary[v] || (p == s.primary[v] && sec < s.secondary[v]) {
				s.primary[v] = p
				s.secondary[v] = sec
				s.parent[v] = int32(it.node)
				h.Push(dijkstraItem{node: v, primary: p, secondary: sec})
			}
		}
	}
	return s
}
