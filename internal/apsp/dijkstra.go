package apsp

import (
	"math"
	"sync"

	"kor/internal/graph"
)

// sweep holds the result of one two-criteria Dijkstra run, laid out by the
// nodes it reached: slot[v] is 1 + v's index into label and parent, or 0 when
// the sweep never reached v. A bounded sweep that settles a small ball thus
// costs 4 bytes per graph node plus 20 per reached node, not a full row of
// scores per node.
//
// For a forward sweep from source s, label[slot[v]-1] holds the minimum of
// the chosen metric over paths s→v (primary) and the other attribute summed
// along that same path (secondary), and parent the predecessor of v on it.
// For a reverse sweep into target t the roles flip: the label covers paths
// v→t and parent is the successor of v on the optimal path.
type sweep struct {
	slot   []int32
	label  []sweepLabel
	parent []int32
}

// sweepLabel is one reached node's (primary, secondary) scores.
type sweepLabel struct {
	primary, secondary float64
}

const noParent = int32(-1)

// reached reports whether v was reached by the sweep.
func (s *sweep) reached(v graph.NodeID) bool { return s.slot[v] != 0 }

// at returns (objective, budget) at v given the metric the sweep ran under;
// ok=false when the sweep never reached v.
func (s *sweep) at(v graph.NodeID, m Metric) (os, bs float64, ok bool) {
	i := s.slot[v]
	if i == 0 {
		return 0, 0, false
	}
	l := s.label[i-1]
	if m == ByObjective {
		return l.primary, l.secondary, true
	}
	return l.secondary, l.primary, true
}

// fillDense writes the sweep out as dense per-node rows, +Inf scores and
// noParent for the nodes it never reached — the layout of the matrix and
// overlay tables.
func (s *sweep) fillDense(prim, sec []float64, par []int32) {
	inf := math.Inf(1)
	for v, i := range s.slot {
		if i == 0 {
			prim[v], sec[v], par[v] = inf, inf, noParent
			continue
		}
		l := s.label[i-1]
		prim[v], sec[v], par[v] = l.primary, l.secondary, s.parent[i-1]
	}
}

// dijkstraItem is one heap entry. Entries are pushed only on a strict
// improvement of a node's label, so no two are equal and the order
// (primary, secondary, node) is total: the settle order does not depend on
// the heap's shape.
type dijkstraItem struct {
	node      graph.NodeID
	primary   float64
	secondary float64
}

func itemLess(a, b dijkstraItem) bool {
	if a.primary != b.primary {
		return a.primary < b.primary
	}
	if a.secondary != b.secondary {
		return a.secondary < b.secondary
	}
	return a.node < b.node
}

// sweepWork is the kernel's reusable scratch: a 4-ary heap, plus the
// tentative labels, parents and settled flags of the nodes reached so far,
// indexed by slot. Nothing in it is |V|-sized unless a sweep reaches the
// whole graph.
type sweepWork struct {
	heap    []dijkstraItem
	label   []sweepLabel
	parent  []int32
	settled []bool
}

var sweepWorkPool = sync.Pool{New: func() any { return new(sweepWork) }}

func (w *sweepWork) push(it dijkstraItem) {
	h := append(w.heap, it)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 4
		if !itemLess(it, h[up]) {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = it
	w.heap = h
}

func (w *sweepWork) pop() dijkstraItem {
	h := w.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			best := first
			end := min(first+4, n)
			for c := first + 1; c < end; c++ {
				if itemLess(h[c], h[best]) {
					best = c
				}
			}
			if !itemLess(h[best], last) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	w.heap = h
	return top
}

// reach gives v its slot and first tentative label.
func (w *sweepWork) reach(slot []int32, v graph.NodeID, l sweepLabel, parent int32) {
	w.label = append(w.label, l)
	w.parent = append(w.parent, parent)
	w.settled = append(w.settled, false)
	slot[v] = int32(len(w.label))
}

// dijkstra runs a two-criteria Dijkstra from root. With reverse=false edges
// are traversed forward (single-source); with reverse=true the transpose
// graph is used (single-target). Ties on the primary metric are broken by
// the secondary, so results are unique and deterministic.
func dijkstra(g *graph.Graph, root graph.NodeID, m Metric, reverse bool) *sweep {
	return dijkstraBounded(g, root, m, reverse, math.Inf(1))
}

// dijkstraBounded is dijkstra truncated at a primary-metric bound: labels
// past the bound are never relaxed, so the search settles only the bound's
// ball around the root. Settled scores are exact; unreached nodes are
// indistinguishable from unreachable ones, which is precisely the contract
// bounded callers want.
func dijkstraBounded(g *graph.Graph, root graph.NodeID, m Metric, reverse bool, bound float64) *sweep {
	w := sweepWorkPool.Get().(*sweepWork)
	s := w.run(g, root, m, reverse, bound)
	sweepWorkPool.Put(w)
	return s
}

// run is the kernel behind dijkstraBounded on workspace w. Beyond the ball's
// size it costs one zeroed int32 per graph node, the slot index.
func (w *sweepWork) run(g *graph.Graph, root graph.NodeID, m Metric, reverse bool, bound float64) *sweep {
	slot := make([]int32, g.NumNodes())
	w.heap, w.label, w.parent, w.settled = w.heap[:0], w.label[:0], w.parent[:0], w.settled[:0]
	w.reach(slot, root, sweepLabel{}, noParent)
	w.push(dijkstraItem{node: root})
	for len(w.heap) > 0 {
		it := w.pop()
		u := it.node
		ui := slot[u] - 1
		if w.settled[ui] {
			continue
		}
		w.settled[ui] = true
		var edges []graph.Edge
		if reverse {
			edges = g.In(u)
		} else {
			edges = g.Out(u)
		}
		for _, e := range edges {
			ep, es := e.Objective, e.Budget
			if m != ByObjective {
				ep, es = es, ep
			}
			p, sec := it.primary+ep, it.secondary+es
			if p > bound {
				continue
			}
			v := e.To
			if vi := slot[v]; vi == 0 {
				w.reach(slot, v, sweepLabel{p, sec}, int32(u))
			} else {
				l := &w.label[vi-1]
				if p > l.primary || (p == l.primary && sec >= l.secondary) {
					continue
				}
				*l = sweepLabel{p, sec}
				w.parent[vi-1] = int32(u)
			}
			w.push(dijkstraItem{node: v, primary: p, secondary: sec})
		}
	}
	return &sweep{
		slot:   slot,
		label:  append([]sweepLabel(nil), w.label...),
		parent: append([]int32(nil), w.parent...),
	}
}

// walkForward reconstructs the path root→dst from a forward sweep.
func (s *sweep) walkForward(root, dst graph.NodeID) ([]graph.NodeID, bool) {
	rev, ok := s.walkReverse(root, dst)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, ok
}

// walkReverse reconstructs the path src→root from a reverse sweep rooted at
// the target.
func (s *sweep) walkReverse(root, src graph.NodeID) ([]graph.NodeID, bool) {
	if !s.reached(src) {
		return nil, false
	}
	var path []graph.NodeID
	for v := src; ; {
		path = append(path, v)
		if v == root {
			break
		}
		p := s.parent[s.slot[v]-1]
		if p == noParent {
			return nil, false
		}
		v = graph.NodeID(p)
	}
	return path, true
}
