package trace

import (
	"fmt"
	"time"

	"kor/internal/apsp"
	"kor/internal/core"
	"kor/internal/graph"
)

// Counter accumulates the time and the number of calls a wrapper saw.
type Counter struct {
	Calls int64
	Time  time.Duration
}

func (c *Counter) since(start time.Time) {
	c.Calls++
	c.Time += time.Since(start)
}

// timedOracle times every call core makes into the oracle. It carries only
// the RouteOracle methods; the per-kind types below add exactly the optional
// capabilities of the oracle they wrap, because core picks its hot path by
// probing for them.
type timedOracle struct {
	o core.RouteOracle
	c *Counter
}

func (t timedOracle) MinObjective(from, to graph.NodeID) (float64, float64, bool) {
	defer t.c.since(time.Now())
	return t.o.MinObjective(from, to)
}

func (t timedOracle) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	defer t.c.since(time.Now())
	return t.o.MinBudget(from, to)
}

func (t timedOracle) MinObjectivePath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	defer t.c.since(time.Now())
	return t.o.MinObjectivePath(from, to)
}

func (t timedOracle) MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	defer t.c.since(time.Now())
	return t.o.MinBudgetPath(from, to)
}

// timedLazy wraps a lazy oracle: OnDemand and Prefetcher.
type timedLazy struct {
	timedOracle
	lazy *apsp.LazyOracle
}

func (t timedLazy) OnDemandSweeps() bool { return t.lazy.OnDemandSweeps() }

func (t timedLazy) PrefetchSource(from graph.NodeID) {
	defer t.c.since(time.Now())
	t.lazy.PrefetchSource(from)
}

func (t timedLazy) PrefetchTarget(to graph.NodeID) {
	defer t.c.since(time.Now())
	t.lazy.PrefetchTarget(to)
}

// timedMatrix wraps a dense matrix oracle: Indexed.
type timedMatrix struct {
	timedOracle
	matrix *apsp.MatrixOracle
}

func (t timedMatrix) IndexedPaths() bool { return t.matrix.IndexedPaths() }

// timedPartitioned wraps a partitioned oracle: Indexed, SliceIndexed and
// SourceSliced.
type timedPartitioned struct {
	timedOracle
	part *apsp.PartitionedOracle
}

func (t timedPartitioned) IndexedPaths() bool { return t.part.IndexedPaths() }

func (t timedPartitioned) TargetSlice(to graph.NodeID, m apsp.Metric) *apsp.TargetSlice {
	defer t.c.since(time.Now())
	return t.part.TargetSlice(to, m)
}

func (t timedPartitioned) SourceSlice(from graph.NodeID, m apsp.Metric) *apsp.TargetSlice {
	defer t.c.since(time.Now())
	return t.part.SourceSlice(from, m)
}

// WrapOracle returns o with every call timed into c. It knows the three
// oracle kinds korserve serves from and refuses any other, since a wrapper
// that dropped or added a capability would send core down another path.
func WrapOracle(o core.RouteOracle, c *Counter) (core.RouteOracle, error) {
	base := timedOracle{o: o, c: c}
	switch o := o.(type) {
	case *apsp.LazyOracle:
		return timedLazy{base, o}, nil
	case *apsp.MatrixOracle:
		return timedMatrix{base, o}, nil
	case *apsp.PartitionedOracle:
		return timedPartitioned{base, o}, nil
	default:
		return nil, fmt.Errorf("trace: no wrapper for oracle type %T", o)
	}
}

// timedPostings times every posting-list lookup core makes.
type timedPostings struct {
	src graph.PostingSource
	c   *Counter
}

// WrapPostings returns src with every call timed into c.
func WrapPostings(src graph.PostingSource, c *Counter) graph.PostingSource {
	return timedPostings{src: src, c: c}
}

func (t timedPostings) Postings(term graph.Term) []graph.NodeID {
	defer t.c.since(time.Now())
	return t.src.Postings(term)
}

func (t timedPostings) DocFrequency(term graph.Term) int {
	defer t.c.since(time.Now())
	return t.src.DocFrequency(term)
}
