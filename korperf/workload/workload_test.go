package workload

import (
	"testing"

	"kor/internal/graph"
	"kor/korapi"
)

func TestPlanIsDeterministicInSeed(t *testing.T) {
	spec, err := Lookup("lazy-unique")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(spec.Graph)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPlan(g, spec, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(g, spec, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewPlan(g, spec, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatal("same seed, different plans")
	}
	if a.Digest() == c.Digest() {
		t.Fatal("different seeds, same plan")
	}
	if Key(a.Verify[0]) != Key(c.Verify[0]) {
		t.Fatal("the verification sample must not depend on the seed")
	}

	// lazy-unique: no read repeats another, nor a verification request.
	seen := map[string]bool{}
	for _, r := range a.Verify {
		seen[Key(r)] = true
	}
	closed, open := spec.Sizes(2)
	if len(a.Closed) != closed || len(a.Open) != open {
		t.Fatalf("sizes %d/%d, want %d/%d", len(a.Closed), len(a.Open), closed, open)
	}
	for _, it := range append(a.Closed, a.Open...) {
		if it.Patch != nil {
			t.Fatal("lazy-unique stream carries a patch")
		}
		k := Key(it.Req)
		if seen[k] {
			t.Fatalf("read %s repeats", k)
		}
		seen[k] = true
	}
}

func TestPooledPlanPatchesAndRepeats(t *testing.T) {
	spec, err := Lookup("city-churn")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(spec.Graph)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(g, spec, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	reads, patches := 0, 0
	for _, it := range append(p.Closed, p.Open...) {
		if it.Patch != nil {
			patches++
			if reads%spec.PatchEvery != 0 {
				t.Fatalf("patch after %d reads, want a multiple of %d", reads, spec.PatchEvery)
			}
			continue
		}
		reads++
		distinct[Key(it.Req)] = true
	}
	if patches != reads/spec.PatchEvery {
		t.Fatalf("%d patches for %d reads", patches, reads)
	}
	if len(distinct) > spec.Pool || len(distinct) >= reads/2 {
		t.Fatalf("%d distinct reads of %d from a pool of %d", len(distinct), reads, spec.Pool)
	}
	if len(p.PatchProbe) != 0 {
		t.Fatal("a workload with patches in its stream needs no patch probe")
	}
}

func TestFlapRestoresTheGraph(t *testing.T) {
	g, err := Build(GraphCity)
	if err != nil {
		t.Fatal(err)
	}
	add, remove, err := Flap(g, graph.NewMemIndex(g))
	if err != nil {
		t.Fatal(err)
	}
	g1 := apply(t, g, add)
	if g1.Fingerprint() == g.Fingerprint() {
		t.Fatal("adding the keyword left the graph unchanged")
	}
	if g2 := apply(t, g1, remove); g2.Fingerprint() != g.Fingerprint() {
		t.Fatal("removing the keyword again did not restore the graph")
	}
}

func apply(t *testing.T, g *graph.Graph, wire korapi.Delta) *graph.Graph {
	t.Helper()
	d, err := wire.KorDelta()
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
