package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kor/korperf/workload"
)

// TestBenchmarkJSONMatchesKorperf keeps BENCHMARK.json and korperf in
// step: every workload it names exists, and its metric names and units are
// exactly the ones korperf prints.
func TestBenchmarkJSONMatchesKorperf(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, err := workload.Lookup(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, korperf prints %d", len(bench.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bench.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] is %s %s, korperf prints %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, korperf prints %d", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range bench.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] is %s %s, korperf prints %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, m := range bench.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
}

func TestCompareRefusesDifferentInputs(t *testing.T) {
	base := identity{Workload: "lazy-unique", Seed: 1, Seconds: 40, Graphs: []string{"a"}, StreamDigest: "d"}
	other := base
	other.Korserve.BinarySHA256 = "another build"
	if diff := inputDiff(base, other); diff != "" {
		t.Fatalf("different builds of the same inputs refused: %s", diff)
	}
	for _, mutate := range []func(*identity){
		func(id *identity) { id.Seed = 2 },
		func(id *identity) { id.Workload = "city-churn" },
		func(id *identity) { id.Seconds = 10 },
		func(id *identity) { id.Graphs = []string{"b"} },
		func(id *identity) { id.StreamDigest = "e" },
	} {
		id := base
		mutate(&id)
		if diff := inputDiff(base, id); diff == "" {
			t.Errorf("inputs %+v paired with %+v", id, base)
		}
	}

	dir := t.TempDir()
	write := func(name string, id identity) string {
		b, err := json.Marshal(record{Identity: id, EndToEnd: map[string]float64{"setup_s": 1}})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := write("a.json", base), write("b.json", other)
	var out strings.Builder
	if err := compareRecords(&out, a, b); err != nil || !strings.Contains(out.String(), "setup_s") {
		t.Fatalf("compare: %v\n%s", err, out.String())
	}
	seeded := base
	seeded.Seed = 9
	if err := compareRecords(&out, a, write("c.json", seeded)); err == nil {
		t.Fatal("compare paired runs of different seeds")
	}
}
