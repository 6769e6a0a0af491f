package core

import (
	"sync"

	"kor/internal/apsp"
	"kor/internal/graph"
)

// Cross-query sweep sharing. The plan layer owns bounded reverse sweeps into
// its candidate nodes (plan.go); before this cache each plan computed its own,
// so concurrent — or merely consecutive — queries sharing a target or a
// popular keyword node repeated identical Dijkstra work. The Searcher now
// carries one sweepShare per snapshot: sweeps are keyed by (root, metric),
// annotated with the bound they were truncated at, and single-flighted so N
// plans needing the same sweep compute it once and the rest wait.
//
// Correctness rests on the prefix property of the bounded sweep: truncation
// only drops nodes wholly past the bound, so a sweep with bound B answers
// every lookup of a plan that needed bound b ≤ B with exactly the scores,
// parents and tie-breaks the plan's own sweep would have produced (ties are
// broken deterministically by node ID). Every caller additionally re-checks
// the returned scores against its own Δ or U, so a wider sweep can never
// admit a node a narrower one would have rejected. A cached bound that is too
// small is never served: the requester recomputes at its own bound and the
// wider sweep replaces the entry.
//
// Lifetime is the Searcher's, and the Searcher is rebuilt with every
// snapshot (see kor.Engine.newSnapshot), so entries die with the graph
// version that produced them — the same invalidation discipline as the
// engine's result cache.

// sweepShareCap bounds the cache FIFO-style. Sweeps are Δ- or U-truncated
// balls for targets and candidates, and full-graph sweeps for reconstruction
// tails on oracles that neither index paths nor sweep on demand. An entry
// costs 4 B per graph node plus 20 B per node it reached: on the 8,000-node
// road graph 256 balls of ~800 nodes hold ~12 MB, and 256 full-graph sweeps
// would hold ~49 MB.
const sweepShareCap = 256

// sweepShareKey identifies a sweep by its root and primary metric; the bound
// lives on the entry so wider sweeps can serve narrower requests.
type sweepShareKey struct {
	root graph.NodeID
	m    apsp.Metric
}

// sweepShareEntry is one in-flight or completed sweep. done closes when sw is
// readable; sw stays nil when the computing goroutine panicked, in which case
// waiters fall back to a private sweep.
type sweepShareEntry struct {
	done  chan struct{}
	bound float64
	sw    *apsp.Sweep
}

// sweepShareRef pairs a key with the exact entry it enqueued, so FIFO
// eviction of a replaced key cannot drop the replacement by accident.
type sweepShareRef struct {
	key sweepShareKey
	e   *sweepShareEntry
}

// sweepShare is the snapshot-scoped shared sweep cache. The zero value is
// unusable; NewSearcher sets the capacity.
type sweepShare struct {
	mu       sync.Mutex
	cap      int
	disabled bool
	entries  map[sweepShareKey]*sweepShareEntry
	order    []sweepShareRef
}

// get returns a sweep into root under metric m whose truncation bound is at
// least bound, computing one when no usable entry exists. shared reports that
// the sweep came out of the cache (or from waiting on another plan's
// computation); when false the calling plan ran the Dijkstra itself and
// should count it in Metrics.PlanSweeps.
func (c *sweepShare) get(g *graph.Graph, root graph.NodeID, m apsp.Metric, bound float64) (sw *apsp.Sweep, shared bool) {
	c.mu.Lock()
	if c.disabled {
		c.mu.Unlock()
		return apsp.ReverseBoundedSweep(g, root, m, bound), false
	}
	key := sweepShareKey{root: root, m: m}
	if e, ok := c.entries[key]; ok && e.bound >= bound {
		c.mu.Unlock()
		<-e.done
		if e.sw != nil {
			return e.sw, true
		}
		// The computing plan died before publishing; serve ourselves.
		return apsp.ReverseBoundedSweep(g, root, m, bound), false
	}
	// Miss, or the cached bound is too small: become the computing leader.
	// An undersized entry is replaced outright — its waiters hold their own
	// pointer and are unaffected.
	e := &sweepShareEntry{done: make(chan struct{}), bound: bound}
	if c.entries == nil {
		c.entries = make(map[sweepShareKey]*sweepShareEntry)
	}
	c.entries[key] = e
	c.order = append(c.order, sweepShareRef{key: key, e: e})
	for len(c.order) > c.cap {
		old := c.order[0]
		c.order = c.order[1:]
		if c.entries[old.key] == old.e {
			delete(c.entries, old.key)
		}
	}
	c.mu.Unlock()
	// Publish even on panic: sw stays nil and waiters fall back.
	defer close(e.done)
	e.sw = apsp.ReverseBoundedSweep(g, root, m, bound)
	return e.sw, false
}

// setEnabled toggles sharing, dropping all entries either way. Disabled, get
// degenerates to a private ReverseBoundedSweep per call — the pre-sharing
// behaviour, kept reachable so the equivalence tests and the bench harness
// can compare the two modes on the same Searcher.
func (c *sweepShare) setEnabled(enabled bool) {
	c.mu.Lock()
	c.disabled = !enabled
	c.entries = nil
	c.order = nil
	c.mu.Unlock()
}
