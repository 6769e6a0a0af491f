package apsp

import (
	"sync"
	"sync/atomic"

	"kor/internal/graph"
)

// LazyOracle serves τ/σ queries from memoized Dijkstra sweeps instead of
// dense tables. A reverse sweep into a target answers every (·, target)
// query; a forward sweep answers every (source, ·) query. The route-search
// algorithms hint their access patterns through the Prefetcher interface:
// the label algorithms pin the query target, Greedy also its current route
// head. Hints run τ sweeps only (see PrefetchSource).
//
// Sweeps are cached with FIFO eviction bounded by capacity, so memory stays
// O(capacity·|V|) on the 20k-node scalability graphs.
//
// A LazyOracle is safe for concurrent use. Each direction's cache is
// guarded by a mutex, and sweep computation is single-flighted: concurrent
// queries needing the same missing sweep share one Dijkstra run instead of
// racing to compute it redundantly. The sweeps themselves are immutable
// once published.
type LazyOracle struct {
	g *graph.Graph

	fwd sweepCache
	rev sweepCache

	// sweeps counts Dijkstra runs, exposed for the ablation benchmarks.
	sweeps atomic.Int64
}

type sweepKey struct {
	root   graph.NodeID
	metric Metric
}

// sweepEntry is one cache slot. done is closed once s is published; waiters
// that found the entry in flight block on it instead of recomputing.
type sweepEntry struct {
	done chan struct{}
	s    *sweep // written under the cache mutex before done is closed
}

// sweepCache is one direction's bounded sweep cache with FIFO eviction and
// single-flight computation. The steady-state read path (cache hits) takes
// only the read lock; the write lock guards insertion and eviction.
type sweepCache struct {
	mu       sync.RWMutex
	capacity int
	entries  map[sweepKey]*sweepEntry
	order    []sweepKey // FIFO eviction order
}

// peek returns the completed sweep for k, or nil when k is absent or still
// in flight. It never blocks on a computation.
func (c *sweepCache) peek(k sweepKey) *sweep {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.entries[k]; ok {
		return e.s // nil while in flight
	}
	return nil
}

// wait blocks until e's sweep is published and returns it, falling back to
// an uncached compute when the computing goroutine panicked.
func (c *sweepCache) wait(e *sweepEntry, compute func() *sweep) *sweep {
	<-e.done
	if e.s == nil {
		return compute()
	}
	return e.s
}

// get returns the sweep for k, computing it with compute if missing. When
// several goroutines miss on the same key at once, exactly one runs compute
// and the rest wait for its result.
func (c *sweepCache) get(k sweepKey, compute func() *sweep) *sweep {
	c.mu.RLock()
	e, ok := c.entries[k]
	c.mu.RUnlock()
	if ok {
		return c.wait(e, compute)
	}
	c.mu.Lock()
	if e, ok := c.entries[k]; ok { // lost the insert race
		c.mu.Unlock()
		return c.wait(e, compute)
	}
	e = &sweepEntry{done: make(chan struct{})}
	c.insertLocked(k, e)
	c.mu.Unlock()

	// If compute panics, drop the placeholder and unblock waiters anyway;
	// e.s stays nil and waiters fall back to computing their own sweep.
	// Only our own entry is removed (a FIFO eviction during the compute may
	// have replaced it with a newer one), together with its order slot so
	// eviction accounting stays exact.
	defer func() {
		if e.s == nil {
			c.mu.Lock()
			if cur, ok := c.entries[k]; ok && cur == e {
				delete(c.entries, k)
				for i := range c.order {
					if c.order[i] == k {
						c.order = append(c.order[:i], c.order[i+1:]...)
						break
					}
				}
			}
			c.mu.Unlock()
			close(e.done)
		}
	}()

	s := compute()

	c.mu.Lock()
	e.s = s
	c.mu.Unlock()
	close(e.done)
	return s
}

// insertLocked records a new entry, evicting the oldest one when the cache
// is full. Evicting an in-flight entry is harmless: its waiters hold the
// entry pointer and still receive the result; it just is not cached.
func (c *sweepCache) insertLocked(k sweepKey, e *sweepEntry) {
	if len(c.order) >= c.capacity {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	c.entries[k] = e
	c.order = append(c.order, k)
}

func (c *sweepCache) setCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = n
	for len(c.order) > n {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
}

// DefaultSweepCapacity bounds each direction's sweep cache.
const DefaultSweepCapacity = 128

// NewLazyOracle returns an oracle over g with the default cache capacity.
func NewLazyOracle(g *graph.Graph) *LazyOracle {
	return &LazyOracle{
		g:   g,
		fwd: sweepCache{capacity: DefaultSweepCapacity, entries: make(map[sweepKey]*sweepEntry)},
		rev: sweepCache{capacity: DefaultSweepCapacity, entries: make(map[sweepKey]*sweepEntry)},
	}
}

// SetCapacity adjusts the per-direction sweep cache bound (minimum 4).
// Safe to call concurrently with queries; shrinking evicts oldest sweeps.
func (o *LazyOracle) SetCapacity(n int) {
	if n < 4 {
		n = 4
	}
	o.fwd.setCapacity(n)
	o.rev.setCapacity(n)
}

// SweepCount reports how many Dijkstra sweeps the oracle has run.
func (o *LazyOracle) SweepCount() int64 { return o.sweeps.Load() }

func (o *LazyOracle) forward(root graph.NodeID, m Metric) *sweep {
	return o.fwd.get(sweepKey{root, m}, func() *sweep {
		o.sweeps.Add(1)
		return dijkstra(o.g, root, m, false)
	})
}

func (o *LazyOracle) reverse(root graph.NodeID, m Metric) *sweep {
	return o.rev.get(sweepKey{root, m}, func() *sweep {
		o.sweeps.Add(1)
		return dijkstra(o.g, root, m, true)
	})
}

// lookup answers a pair query under metric m, preferring whichever sweep is
// already cached and defaulting to a reverse sweep into the target — the
// dominant access pattern of the label-search algorithms.
func (o *LazyOracle) lookup(from, to graph.NodeID, m Metric) (float64, float64, bool) {
	if from == to {
		return 0, 0, true
	}
	if s := o.rev.peek(sweepKey{to, m}); s != nil {
		return s.at(from, m)
	}
	if s := o.fwd.peek(sweepKey{from, m}); s != nil {
		return s.at(to, m)
	}
	return o.reverse(to, m).at(from, m)
}

// MinObjective returns the scores of τ(from,to).
func (o *LazyOracle) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	return o.lookup(from, to, ByObjective)
}

// MinBudget returns the scores of σ(from,to).
func (o *LazyOracle) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	return o.lookup(from, to, ByBudget)
}

// PrefetchSource caches the forward τ sweep from this node. Only τ is
// prefetched: the σ lookups of the label algorithms are answered from
// Δ-bounded sweeps the query plan owns, so a full σ sweep would go unread.
func (o *LazyOracle) PrefetchSource(from graph.NodeID) {
	o.forward(from, ByObjective)
}

// PrefetchTarget caches the reverse τ sweep into this node; see
// PrefetchSource for why σ is left to the plan's bounded sweeps.
func (o *LazyOracle) PrefetchTarget(to graph.NodeID) {
	o.reverse(to, ByObjective)
}

// MinObjectivePath materializes τ(from,to), reusing a cached sweep when one
// is available.
func (o *LazyOracle) MinObjectivePath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return o.path(from, to, ByObjective)
}

// MinBudgetPath materializes σ(from,to).
func (o *LazyOracle) MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	return o.path(from, to, ByBudget)
}

func (o *LazyOracle) path(from, to graph.NodeID, m Metric) ([]graph.NodeID, bool) {
	if from == to {
		return []graph.NodeID{from}, true
	}
	if s := o.rev.peek(sweepKey{to, m}); s != nil {
		return s.walkReverse(to, from)
	}
	return o.forward(from, m).walkForward(from, to)
}
