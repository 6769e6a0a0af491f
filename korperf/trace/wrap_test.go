package trace

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"kor/internal/apsp"
	"kor/internal/core"
	"kor/internal/gen"
	"kor/internal/graph"
	"kor/internal/queryset"
)

// capabilities lists which optional oracle interfaces o implements.
func capabilities(o core.RouteOracle) []string {
	var out []string
	if _, ok := o.(apsp.OnDemand); ok {
		out = append(out, "OnDemand")
	}
	if _, ok := o.(apsp.Prefetcher); ok {
		out = append(out, "Prefetcher")
	}
	if _, ok := o.(apsp.Indexed); ok {
		out = append(out, "Indexed")
	}
	if _, ok := o.(apsp.SliceIndexed); ok {
		out = append(out, "SliceIndexed")
	}
	if _, ok := o.(apsp.SourceSliced); ok {
		out = append(out, "SourceSliced")
	}
	return out
}

var kinds = []struct {
	name  string
	build func(*graph.Graph) core.RouteOracle
	caps  []string
}{
	{"lazy", func(g *graph.Graph) core.RouteOracle { return apsp.NewLazyOracle(g) }, []string{"OnDemand", "Prefetcher"}},
	{"matrix", func(g *graph.Graph) core.RouteOracle { return apsp.NewMatrixOracle(g) }, []string{"Indexed"}},
	{"partitioned", func(g *graph.Graph) core.RouteOracle { return apsp.NewPartitionedOracle(g, 64) }, []string{"Indexed", "SliceIndexed", "SourceSliced"}},
}

// TestWrapperKeepsCapabilities pins that each wrapper exposes exactly the
// optional interfaces of the oracle it wraps: core chooses its hot path by
// probing for them, so a lost or extra capability would time another path.
func TestWrapperKeepsCapabilities(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 3, Nodes: 300})
	for _, k := range kinds {
		bare := k.build(g)
		if got := capabilities(bare); !reflect.DeepEqual(got, k.caps) {
			t.Fatalf("%s oracle itself has %v, test expects %v", k.name, got, k.caps)
		}
		var c Counter
		w, err := WrapOracle(bare, &c)
		if err != nil {
			t.Fatal(err)
		}
		if got := capabilities(w); !reflect.DeepEqual(got, k.caps) {
			t.Errorf("%s wrapper has %v, want %v", k.name, got, k.caps)
		}
	}
	if _, err := WrapOracle(struct{ core.RouteOracle }{apsp.NewLazyOracle(g)}, &Counter{}); err == nil {
		t.Error("unknown oracle type wrapped without error")
	}
}

// TestWrappedSearchMatchesBare runs the same queries through a searcher on a
// bare oracle and one on a wrapped oracle of the same kind, for every kind,
// and requires identical routes, metrics and errors.
func TestWrappedSearchMatchesBare(t *testing.T) {
	g := gen.RoadNetwork(gen.RoadConfig{Seed: 3, Nodes: 300})
	idx := graph.NewMemIndex(g)
	qs := queryset.Generate(g, idx, queryset.Spec{
		Seed: 5, Count: 6, Keywords: 3, Budget: 9, MaxCrowKm: 4, PlanarCoords: true, TopTermFraction: 0.2,
	})
	if len(qs) == 0 {
		t.Fatal("no queries generated")
	}
	algos := []core.Algorithm{core.AlgorithmBucketBound, core.AlgorithmOSScaling, core.AlgorithmGreedy, core.AlgorithmExact}
	ctx := context.Background()
	for _, k := range kinds {
		var oc, pc Counter
		wo, err := WrapOracle(k.build(g), &oc)
		if err != nil {
			t.Fatal(err)
		}
		bare := core.NewSearcher(g, k.build(g), graph.NewMemIndex(g))
		wrapped := core.NewSearcher(g, wo, WrapPostings(graph.NewMemIndex(g), &pc))
		for _, a := range algos {
			for i, q := range qs {
				want, werr := bare.Run(ctx, a, q, core.DefaultOptions())
				got, gerr := wrapped.Run(ctx, a, q, core.DefaultOptions())
				if !errors.Is(gerr, werr) && (gerr == nil || werr == nil || gerr.Error() != werr.Error()) {
					t.Fatalf("%s %s query %d: error %v, bare %v", k.name, a, i, gerr, werr)
				}
				if !reflect.DeepEqual(got.Routes, want.Routes) || got.Metrics != want.Metrics {
					t.Fatalf("%s %s query %d: wrapped result differs from bare\n got %+v\nwant %+v", k.name, a, i, got, want)
				}
			}
		}
		if oc.Calls == 0 || pc.Calls == 0 {
			t.Errorf("%s: wrappers saw %d oracle and %d posting calls", k.name, oc.Calls, pc.Calls)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, StartNS: 30, EndNS: 60}, // overlaps its sibling by 10
		{ID: 3, Parent: 1, StartNS: 15, EndNS: 20},
		{ID: 4, Parent: 0, StartNS: 90, EndNS: 130}, // runs past its parent
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 40}
	for i, d := range SelfTimes(spans) {
		if int64(d) != want[i] {
			t.Errorf("span %d self time %d, want %d", i, d, want[i])
		}
	}
}
