package apsp

import "kor/internal/graph"

// Query-scoped bounded sweeps. The label algorithms only ever ask σ
// questions whose answer is useless beyond the query's budget limit Δ: a
// partial route needing more than Δ of budget to reach a candidate node can
// never become feasible. A reverse Dijkstra into that candidate truncated at
// Δ therefore answers every useful lookup exactly, while settling only the
// Δ-ball around the candidate instead of the whole graph. These sweeps are
// owned by one query plan and die with it — they never enter the shared
// oracle caches, whose entries must stay valid for every budget.

// Sweep is an exported handle over one truncated reverse sweep into a fixed
// root. Scores answers (from → root) pair queries; ok=false means the root
// is unreachable from the node within the sweep's bound (or at all), which
// callers must treat as "no useful path", not "no path".
type Sweep struct {
	s    *sweep
	m    Metric
	root graph.NodeID
}

// Scores returns the (objective, budget) scores of the metric-optimal path
// from v into the sweep's root.
func (s *Sweep) Scores(v graph.NodeID) (os, bs float64, ok bool) {
	return s.s.at(v, s.m)
}

// ReverseBoundedSweep runs a reverse two-criteria Dijkstra into root,
// truncated once the primary metric exceeds bound (pass +Inf for a full
// sweep). The scores of every settled node are exact (truncation only drops
// nodes wholly past the bound).
func ReverseBoundedSweep(g *graph.Graph, root graph.NodeID, m Metric, bound float64) *Sweep {
	return &Sweep{s: dijkstraBounded(g, root, m, true, bound), m: m, root: root}
}

// WalkFrom materializes the metric-optimal path from v into the sweep's
// root, inclusive of both endpoints. One sweep answers every path into its
// root — the reconstruction pattern of the label algorithms, which the
// score-only dense tables would otherwise answer with a fresh sweep per
// path.
func (s *Sweep) WalkFrom(v graph.NodeID) ([]graph.NodeID, bool) {
	return s.s.walkReverse(s.root, v)
}

// OnDemand marks oracles whose pair lookups may trigger full-graph sweeps,
// so a query plan profits from computing its own bounded sweeps into the
// handful of candidate nodes it will hammer. Dense-table oracles answer
// lookups in O(1) and must not implement it.
type OnDemand interface {
	// OnDemandSweeps reports that pair lookups are served by sweeps computed
	// on demand.
	OnDemandSweeps() bool
}

// IsOnDemand reports whether o computes pair scores via on-demand sweeps.
func IsOnDemand(o Oracle) bool {
	d, ok := o.(OnDemand)
	return ok && d.OnDemandSweeps()
}

// Indexed marks oracles whose path materialization is a table walk rather
// than a sweep, so callers can delegate reconstruction to them directly
// instead of maintaining their own path sweeps.
type Indexed interface {
	// IndexedPaths reports that Min*Path runs in O(path length).
	IndexedPaths() bool
}

// HasIndexedPaths reports whether o materializes paths from tables.
func HasIndexedPaths(o Oracle) bool {
	d, ok := o.(Indexed)
	return ok && d.IndexedPaths()
}

// OnDemandSweeps marks the lazy oracle as sweep-backed.
func (o *LazyOracle) OnDemandSweeps() bool { return true }
