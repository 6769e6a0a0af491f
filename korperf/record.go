package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// metric is one reported metric: its name and unit, as BENCHMARK.json
// lists them.
type metric struct{ name, unit string }

// endToEnd are the metrics a korserve user sees, printed with --trace 0.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"capacity_qps", "req/s"},
	{"ok_share", "fraction"},
	{"objective_ratio", "ratio"},
	{"peak_rss_mb", "MiB"},
	{"patch_p50_ms", "ms"},
}

// perLayer are the metrics of single layers, printed with --trace 1.
var perLayer = []metric{
	{"korserve.cpu_ms_per_query", "ms"},
	{"korserve.overhead_p50_ms", "ms"},
	{"korapi.decode_us", "us"},
	{"korapi.encode_us", "us"},
	{"korapi.response_bytes", "bytes"},
	{"kor.cache_hit_ratio", "fraction"},
	{"kor.coalesced_share", "fraction"},
	{"kor.run_hit_us", "us"},
	{"kor.run_miss_ms", "ms"},
	{"kor.patch_ms", "ms"},
	{"core.search_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.labels_per_query", "count"},
	{"core.dominated_share", "fraction"},
	{"core.plan_sweeps_per_query", "count"},
	{"core.shared_sweeps_per_query", "count"},
	{"core.no_route_share", "fraction"},
	{"apsp.ms_per_query", "ms"},
	{"apsp.calls_per_query", "count"},
	{"apsp.sweeps_per_query", "count"},
	{"apsp.build_s", "s"},
	{"graph.load_s", "s"},
	{"graph.apply_ms", "ms"},
	{"graph.postings_per_query", "count"},
	{"bench.send_lag_p99_ms", "ms"},
	{"trace.overhead_share", "fraction"},
}

// identity is what a run's inputs were. Two runs are comparable only when
// everything but the korserve build is equal.
type identity struct {
	Workload     string        `json:"workload"`
	Seed         int64         `json:"seed"`
	Seconds      int           `json:"seconds"`
	Graphs       []string      `json:"graph_fingerprints"`
	StreamDigest string        `json:"stream_digest"`
	Korserve     korserveBuild `json:"korserve"`
}

type korserveBuild struct {
	Revision     string `json:"revision,omitempty"`
	BinarySHA256 string `json:"binary_sha256"`
}

type sampleCounts struct {
	Closed  int `json:"closed"`
	Open    int `json:"open"`
	Verify  int `json:"verify"`
	Patches int `json:"patches"`
	// Latency counts the open-loop reads that saw no steal, which the
	// latency metrics are taken over; LatencyAll counts every open-loop
	// read.
	Latency    int `json:"latency"`
	LatencyAll int `json:"latency_all"`
	BeyondP99  int `json:"beyond_p99"`
}

// record is everything one run measured, saved as JSON next to the others.
type record struct {
	Identity        identity           `json:"identity"`
	EndToEnd        map[string]float64 `json:"end_to_end"`
	PerLayer        map[string]float64 `json:"per_layer,omitempty"`
	Attempted       int                `json:"attempted"`
	Failed          int                `json:"failed"`
	Failures        map[string]int     `json:"failures"`
	FailureExamples []string           `json:"failure_examples,omitempty"`
	Samples         sampleCounts       `json:"samples"`
	// LatencyMS is the open-loop latency of the reads without steal at
	// a few more quantiles, to show the shape of the tail around the
	// reported p50 and p99; LatencyAllMS is the same over every read.
	LatencyMS    map[string]float64 `json:"latency_ms"`
	LatencyAllMS map[string]float64 `json:"latency_all_ms"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// took during the open loop.
	StealShare    float64   `json:"steal_share"`
	SetupSamplesS []float64 `json:"setup_samples_s"`
	// IndexBuildS is the distance index's build time, a preparation cost
	// reported here and never timed as set-up; 0 without an index.
	IndexBuildS     float64 `json:"index_build_s"`
	SpanFile        string  `json:"span_file,omitempty"`
	TraceMismatches int     `json:"trace_mismatches"`
}

// maxExamples bounds the failure details a record keeps.
const maxExamples = 20

func (r *record) fail(reason, detail string) {
	r.Failed++
	r.Failures[reason]++
	if len(r.FailureExamples) < maxExamples {
		r.FailureExamples = append(r.FailureExamples, reason+": "+detail)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result is the final line the benchmark prints.
func (r *record) result(traced bool) result {
	out := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	defs, vals := endToEnd, r.EndToEnd
	if traced {
		defs, vals = perLayer, r.PerLayer
	}
	for _, m := range defs {
		out.Metrics[m.name] = value{vals[m.name], m.unit}
	}
	return out
}

func (r *record) printSummary(w io.Writer) {
	id := r.Identity
	fmt.Fprintf(w, "workload %s seed %d: graphs %v, stream %s, korserve %s\n",
		id.Workload, id.Seed, id.Graphs, id.StreamDigest, id.Korserve.BinarySHA256[:min(12, len(id.Korserve.BinarySHA256))])
	s := r.Samples
	fmt.Fprintf(w, "samples: closed %d, open %d (latency over %d of %d reads, %d beyond p99; steal %.1f%% of CPU time), verify %d, patches %d\n",
		s.Closed, s.Open, s.Latency, s.LatencyAll, s.BeyondP99, 100*r.StealShare, s.Verify, s.Patches)
	if s.BeyondP99 < 10 {
		fmt.Fprintf(w, "warning: only %d latency samples beyond p99; run longer for a resolved tail\n", s.BeyondP99)
	}
	fmt.Fprintf(w, "attempted %d, failed %d %v\n", r.Attempted, r.Failed, r.Failures)
	for _, e := range r.FailureExamples {
		fmt.Fprintln(w, "  failure", e)
	}
	if r.IndexBuildS > 0 {
		fmt.Fprintf(w, "preparation: distance index built in %.3f s (not part of setup_s)\n", r.IndexBuildS)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-30s %14.6g %s\n", m.name, r.EndToEnd[m.name], m.unit)
	}
	for _, m := range perLayer {
		if v, ok := r.PerLayer[m.name]; ok {
			fmt.Fprintf(w, "%-30s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	if r.SpanFile != "" {
		fmt.Fprintf(w, "spans: %s (trace mismatches %d)\n", r.SpanFile, r.TraceMismatches)
	}
}

func (r *record) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if len(r.PerLayer) > 0 {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Identity.Workload, r.Identity.Seed, trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// compareRecords prints the metrics of two run records side by side. It
// refuses records whose inputs differ: a ratio between two different
// request streams says nothing about the two builds.
func compareRecords(w io.Writer, pathA, pathB string) error {
	var a, b record
	for _, x := range []struct {
		path string
		rec  *record
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, x.rec); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	if diff := inputDiff(a.Identity, b.Identity); diff != "" {
		return fmt.Errorf("refusing to pair runs with different inputs: %s", diff)
	}
	fmt.Fprintf(w, "%-30s %14s %14s %8s\n", "metric", "a", "b", "b/a")
	for _, vals := range []struct{ a, b map[string]float64 }{{a.EndToEnd, b.EndToEnd}, {a.PerLayer, b.PerLayer}} {
		names := make([]string, 0, len(vals.a))
		for k := range vals.a {
			if _, ok := vals.b[k]; ok {
				names = append(names, k)
			}
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "%-30s %14.6g %14.6g %8.3f\n", k, vals.a[k], vals.b[k], vals.b[k]/vals.a[k])
		}
	}
	return nil
}

// inputDiff names the first input that differs between two runs, or "".
func inputDiff(a, b identity) string {
	switch {
	case a.Workload != b.Workload:
		return fmt.Sprintf("workload %s vs %s", a.Workload, b.Workload)
	case a.Seed != b.Seed:
		return fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds:
		return fmt.Sprintf("seconds %d vs %d", a.Seconds, b.Seconds)
	case !slices.Equal(a.Graphs, b.Graphs):
		return fmt.Sprintf("graph fingerprints %v vs %v", a.Graphs, b.Graphs)
	case a.StreamDigest != b.StreamDigest:
		return fmt.Sprintf("request stream %s vs %s", a.StreamDigest, b.StreamDigest)
	}
	return ""
}
