package apsp

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"kor/internal/gen"
	"kor/internal/graph"
)

// TestKernelMatchesDenseReference: on random graphs (half of them with
// quantized attributes, so ties on both criteria are common), in both
// directions, under both metrics and at random bounds including +Inf, the
// slot-indexed kernel reaches exactly the nodes the dense reference reaches,
// with bit-identical scores and parents.
func TestKernelMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(60)
		g := randomTestGraph(rng, n, trial%2 == 0)
		for _, reverse := range []bool{false, true} {
			for _, m := range []Metric{ByObjective, ByBudget} {
				root := graph.NodeID(rng.Intn(n))
				bound := math.Inf(1)
				if rng.Intn(3) > 0 {
					bound = rng.Float64() * 6
				}
				want := denseDijkstra(g, root, m, reverse, bound)
				got := dijkstraBounded(g, root, m, reverse, bound)
				if len(got.label) != len(got.parent) {
					t.Fatalf("trial %d: %d labels but %d parents", trial, len(got.label), len(got.parent))
				}
				reached := 0
				for v := 0; v < n; v++ {
					node := graph.NodeID(v)
					wantOK := !math.IsInf(want.primary[v], 1)
					if got.reached(node) != wantOK {
						t.Fatalf("trial %d reverse=%v m=%v bound=%v: node %d reached=%v, reference %v",
							trial, reverse, m, bound, v, got.reached(node), wantOK)
					}
					if !wantOK {
						continue
					}
					reached++
					i := got.slot[v] - 1
					l := got.label[i]
					if math.Float64bits(l.primary) != math.Float64bits(want.primary[v]) ||
						math.Float64bits(l.secondary) != math.Float64bits(want.secondary[v]) ||
						got.parent[i] != want.parent[v] {
						t.Fatalf("trial %d reverse=%v m=%v bound=%v: node %d = (%v,%v,parent %d), reference (%v,%v,parent %d)",
							trial, reverse, m, bound, v, l.primary, l.secondary, got.parent[i],
							want.primary[v], want.secondary[v], want.parent[v])
					}
				}
				if reached != len(got.label) {
					t.Fatalf("trial %d: %d nodes reached but %d labels stored", trial, reached, len(got.label))
				}
				// The dense fill used by the matrix and overlay tables is the
				// reference layout exactly.
				prim, sec, par := make([]float64, n), make([]float64, n), make([]int32, n)
				got.fillDense(prim, sec, par)
				for v := 0; v < n; v++ {
					if math.Float64bits(prim[v]) != math.Float64bits(want.primary[v]) ||
						math.Float64bits(sec[v]) != math.Float64bits(want.secondary[v]) || par[v] != want.parent[v] {
						t.Fatalf("trial %d: fillDense node %d = (%v,%v,%d), reference (%v,%v,%d)",
							trial, v, prim[v], sec[v], par[v], want.primary[v], want.secondary[v], want.parent[v])
					}
				}
			}
		}
	}
}

// roadBall returns the 8,000-node road graph, a root, and a budget bound
// whose reverse σ ball around that root holds about a tenth of the graph —
// the shape of the Δ-bounded candidate sweeps the query plans run.
func roadBall(tb testing.TB) (*graph.Graph, graph.NodeID, float64) {
	tb.Helper()
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 3, Nodes: 8000})
	root := graph.NodeID(4321)
	full := dijkstra(g, root, ByBudget, true)
	prims := make([]float64, len(full.label))
	for i, l := range full.label {
		prims[i] = l.primary
	}
	sort.Float64s(prims)
	return g, root, prims[len(prims)/10]
}

// TestBoundedSweepAllocation pins the cost model of the slot-indexed layout:
// a Δ-bounded reverse sweep allocates one int32 slot per graph node plus a
// constant per reached node, not a row of scores per graph node (the dense
// layout allocated about 45 bytes per graph node whatever the bound).
func TestBoundedSweepAllocation(t *testing.T) {
	g, root, bound := roadBall(t)
	n := g.NumNodes()
	// One warm workspace, as the pool hands out in steady state; a private
	// one keeps the count independent of pool eviction.
	var w sweepWork
	reached := len(w.run(g, root, ByBudget, true, bound).label)
	if reached < n/20 || reached > n/5 {
		t.Fatalf("ball holds %d of %d nodes; the test wants about a tenth", reached, n)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		w.run(g, root, ByBudget, true, bound)
	}
	runtime.ReadMemStats(&after)
	perSweep := float64(after.TotalAlloc-before.TotalAlloc) / runs
	// 4 B slot per graph node, 20 B of scores and parent per reached node;
	// the slack covers size-class rounding and the sweep header.
	limit := float64(4*n+24*reached) + 512
	if perSweep > limit {
		t.Errorf("bounded sweep allocated %.0f B (%.1f B per graph node, %d reached), want at most %.0f",
			perSweep, perSweep/float64(n), reached, limit)
	}
	if perNode := perSweep / float64(n); perNode > 10 {
		t.Errorf("bounded sweep allocated %.1f B per graph node, want a few", perNode)
	}
}

var sweepSink *Sweep

// BenchmarkReverseBoundedSweep times one Δ-bounded reverse σ sweep on the
// 8,000-node road graph, settling about a tenth of it.
func BenchmarkReverseBoundedSweep(b *testing.B) {
	g, root, bound := roadBall(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepSink = ReverseBoundedSweep(g, root, ByBudget, bound)
	}
}
