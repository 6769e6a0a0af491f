package trace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"time"

	"kor"
	"kor/internal/apsp"
	"kor/internal/core"
	"kor/internal/graph"
	"kor/internal/metrics"
	"kor/internal/stats"
	"kor/korapi"
	"kor/korperf/workload"
)

// Config names what to replay.
type Config struct {
	GraphPath string
	// IndexPath is the persistent distance index korserve was started
	// with, or empty.
	IndexPath string
	// Items are replayed in order on one goroutine.
	Items []workload.Item
}

// Report is the outcome of a replay.
type Report struct {
	Spans []Span
	// Untraced and Traced are the summed times of the reads in the two
	// replays: each read from decode to encode. Patches and the core
	// searches the traced replay repeats on the side are left out.
	Untraced, Traced time.Duration
	// Searches holds one entry per cache miss of the traced replay.
	Searches []Search
	// Reads counts replayed reads and NoRoute those answered no_route.
	Reads, NoRoute int
	// HitRuns are the ids of the kor.run spans answered from the cache.
	HitRuns []int
	// Mismatches counts searches whose best objective differs from the
	// engine's answer to the same read; it should be 0.
	Mismatches int
}

// Search is one core.Searcher.Run repeated for a cache miss.
type Search struct {
	Metrics  core.Metrics
	Oracle   Counter
	Postings Counter
}

// engineConfig mirrors korserve's engine: default cache, a metrics
// registry, and the distance index when one is served.
func engineConfig(indexPath string) *kor.EngineConfig {
	return &kor.EngineConfig{CacheSize: 1024, Metrics: metrics.NewRegistry(), DistIndexPath: indexPath}
}

// denseLimit is kor's OracleAuto cut-off: graphs up to this many nodes get
// the dense matrix oracle, larger ones the lazy oracle.
const denseLimit = 6000

// oracleFor builds the oracle kind the engine serves g from. It mirrors the
// engine's choice: the index while g matches it, a lazy oracle when an
// indexed engine's graph has diverged, otherwise OracleAuto. At the
// benchmark's graph sizes the engine's lazy sweep budget resolves to the
// lazy oracle's default capacity, so no capacity is set here.
func oracleFor(g *graph.Graph, index *apsp.PartitionedOracle, indexed bool) core.RouteOracle {
	switch {
	case index != nil && index.IndexInfo().Fingerprint == g.Fingerprint():
		return index
	case indexed || g.NumNodes() > denseLimit:
		return apsp.NewLazyOracle(g)
	default:
		return apsp.NewMatrixOracle(g)
	}
}

// read is a replayed read with its query pre-encoded, so encoding the
// benchmark's own input is not timed as decoding.
type read struct {
	query string
	patch *korapi.Delta
}

// Replay runs cfg.Items in process on fresh engines configured like
// korserve: twice untraced (a warm-up, then the baseline) and once traced.
// The traced pass repeats every cache miss on a core.Searcher whose oracle
// and posting source are timed.
func Replay(ctx context.Context, cfg Config) (*Report, error) {
	rec := NewRecorder()
	id := rec.Begin("graph.load", -1, -1)
	g, err := kor.LoadGraph(cfg.GraphPath)
	rec.End(id)
	if err != nil {
		return nil, err
	}
	var index *apsp.PartitionedOracle
	id = rec.Begin("apsp.build", -1, -1)
	if cfg.IndexPath != "" {
		index, err = apsp.OpenIndex(cfg.IndexPath, g)
	}
	oracle := oracleFor(g, index, cfg.IndexPath != "")
	rec.End(id)
	if err != nil {
		return nil, err
	}
	if index != nil {
		defer index.Close()
	}

	items := make([]read, len(cfg.Items))
	for i, it := range cfg.Items {
		items[i] = read{query: it.Query(), patch: it.Patch}
	}

	// The first untraced pass only warms the process up; the second is the
	// baseline the traced pass is compared with.
	rep := &Report{}
	for range 2 {
		if rep.Untraced, err = untraced(ctx, g, cfg.IndexPath, items); err != nil {
			return nil, err
		}
	}

	id = rec.Begin("kor.new_engine", -1, -1)
	eng, err := kor.NewEngine(g, engineConfig(cfg.IndexPath))
	rec.End(id)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	tr := &tracer{rec: rec, rep: rep, index: index, indexed: cfg.IndexPath != "", timerCost: timerCost()}
	tr.setGraph(g, oracle)
	for i, it := range items {
		if err := step(ctx, eng, it, tr, i); err != nil {
			return nil, err
		}
	}
	rep.Spans = rec.Spans()
	for _, s := range rep.Spans {
		if s.Name == "request" {
			rep.Traced += s.Duration()
		}
	}
	return rep, nil
}

// untraced replays items on a fresh engine and returns the summed time of
// its reads.
func untraced(ctx context.Context, g *graph.Graph, indexPath string, items []read) (time.Duration, error) {
	eng, err := kor.NewEngine(g, engineConfig(indexPath))
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	var total time.Duration
	for _, it := range items {
		start := time.Now()
		if err := step(ctx, eng, it, nil, -1); err != nil {
			return 0, err
		}
		if it.patch == nil {
			total += time.Since(start)
		}
	}
	return total, nil
}

// tracer carries the traced replay's state: the recorder and the timed
// searcher that repeats cache misses.
type tracer struct {
	rec      *Recorder
	rep      *Report
	index    *apsp.PartitionedOracle
	indexed  bool
	searcher *core.Searcher
	oracle   Counter
	postings Counter
	// timerCost is what timing one wrapped call adds to it; it is taken
	// off the aggregated apsp and graph.postings times.
	timerCost time.Duration
}

func (t *tracer) setGraph(g *graph.Graph, oracle core.RouteOracle) {
	o, err := WrapOracle(oracle, &t.oracle)
	if err != nil {
		panic(err) // oracleFor builds only kinds WrapOracle knows
	}
	t.searcher = core.NewSearcher(g, o, WrapPostings(graph.NewMemIndex(g), &t.postings))
}

// step replays one item. With a nil tracer it records nothing.
func step(ctx context.Context, eng *kor.Engine, it read, t *tracer, req int) error {
	if it.patch != nil {
		return patch(eng, *it.patch, t, req)
	}
	var root, id int
	if t != nil {
		root = t.rec.Begin("request", -1, req)
		id = t.rec.Begin("korapi.decode", root, req)
	}
	qv, err := url.ParseQuery(it.query)
	if err != nil {
		return err
	}
	wire, apiErr := korapi.RequestFromParams(qv)
	if apiErr != nil {
		return apiErr
	}
	kreq, err := wire.KorRequest()
	if err != nil {
		return err
	}
	if t != nil {
		t.rec.End(id)
		id = t.rec.Begin("kor.run", root, req)
	}
	resp, runErr := eng.Run(ctx, kreq)
	if t != nil {
		t.rec.End(id)
		if resp.Cached {
			t.rep.HitRuns = append(t.rep.HitRuns, id)
		}
		id = t.rec.Begin("korapi.encode", root, req)
	}
	if err := encode(resp, runErr, wire.Metrics); err != nil {
		return err
	}
	if t == nil {
		return nil
	}
	t.rec.End(id)
	t.rec.End(root)
	t.rep.Reads++
	if errors.Is(runErr, kor.ErrNoRoute) {
		t.rep.NoRoute++
	}
	searched := runErr == nil || errors.Is(runErr, kor.ErrNoRoute) || errors.Is(runErr, kor.ErrBudgetExceeded)
	if !resp.Cached && !resp.Coalesced && searched {
		return t.search(ctx, kreq, resp, req)
	}
	return nil
}

// encode renders the answer as korserve's route handler does.
func encode(resp kor.Response, runErr error, withMetrics bool) error {
	var err error
	if e := korapi.ErrorFrom(runErr); e != nil {
		_, err = json.Marshal(korapi.ErrorEnvelope{Error: *e})
	} else {
		out := korapi.ResponseFromKor(resp.Graph(), resp, withMetrics)
		out.Warning = korapi.WarningFrom(runErr)
		_, err = json.Marshal(out)
	}
	return err
}

// search repeats a cache miss on the timed searcher: one core.search span
// with one aggregated apsp child and one aggregated graph.postings child.
func (t *tracer) search(ctx context.Context, kreq kor.Request, resp kor.Response, req int) error {
	g := resp.Graph()
	if t.searcher.Graph().Fingerprint() != g.Fingerprint() {
		t.setGraph(g, oracleFor(g, t.index, t.indexed))
	}
	q := core.Query{Source: kreq.From, Target: kreq.To, Budget: kreq.Budget}
	for _, kw := range kreq.Keywords {
		term, ok := g.Vocab().Lookup(kw)
		if !ok {
			return fmt.Errorf("trace: keyword %q answered but unknown", kw)
		}
		q.Keywords = append(q.Keywords, term)
	}
	opts := kor.DefaultOptions()
	if kreq.K != 0 {
		opts.K = kreq.K
	}
	oracle0, postings0 := t.oracle, t.postings
	id := t.rec.Begin("core.search", -1, req)
	res, _ := t.searcher.Run(ctx, kreq.Algorithm, q, opts)
	t.rec.End(id)
	s := Search{
		Metrics:  res.Metrics,
		Oracle:   t.delta(t.oracle, oracle0),
		Postings: t.delta(t.postings, postings0),
	}
	// The children are laid end to end from the search's start: apsp and
	// graph.postings as measured, then trace.timer, the timer cost of
	// measuring them, so that none of it counts as core's own time.
	at := t.rec.spans[id].StartNS
	for _, c := range []struct {
		name string
		d    time.Duration
	}{
		{"apsp", s.Oracle.Time},
		{"graph.postings", s.Postings.Time},
		{"trace.timer", time.Duration(s.Oracle.Calls+s.Postings.Calls) * t.timerCost},
	} {
		t.rec.Add(c.name, id, req, at, c.d)
		at += int64(c.d)
	}
	t.rep.Searches = append(t.rep.Searches, s)
	if len(res.Routes) != len(resp.Routes) || (len(res.Routes) > 0 && res.Routes[0].Objective != resp.Routes[0].Objective) {
		t.rep.Mismatches++
	}
	return nil
}

// delta is the calls and time a counter gained since then, with the timer's
// own cost taken off.
func (t *tracer) delta(now, then Counter) Counter {
	calls := now.Calls - then.Calls
	return Counter{Calls: calls, Time: max(0, now.Time-then.Time-time.Duration(calls)*t.timerCost)}
}

// timerCost measures the cost of timing one call as the wrappers do: on the
// dense matrix oracle a lookup is a few nanoseconds, so without the
// correction the apsp layer would be charged mostly for the timer.
func timerCost() time.Duration {
	const n = 20000
	var c Counter
	costs := make([]float64, 5)
	for i := range costs {
		start := time.Now()
		for range n {
			c.since(time.Now())
		}
		costs[i] = float64(time.Since(start)) / n
	}
	if c.Calls != n*int64(len(costs)) {
		return 0 // keeps c, and the calls that fill it, live
	}
	return time.Duration(stats.Summarize(costs).P50)
}

// patch replays an admin patch as Engine.Patch's two public halves,
// Graph.Apply and Engine.Swap, so the graph layer's share is a real child
// span of kor.patch.
func patch(eng *kor.Engine, wire korapi.Delta, t *tracer, req int) error {
	d, err := wire.KorDelta()
	if err != nil {
		return err
	}
	var root, id int
	if t != nil {
		root = t.rec.Begin("kor.patch", -1, req)
		id = t.rec.Begin("graph.apply", root, req)
	}
	g2, err := eng.Graph().Apply(d)
	if err != nil {
		return err
	}
	if t != nil {
		t.rec.End(id)
	}
	if _, err := eng.Swap(g2); err != nil {
		return err
	}
	if t != nil {
		t.rec.End(root)
	}
	return nil
}

// Metrics turns the report into the per-layer metrics the traced run owns.
func (r *Report) Metrics() map[string]float64 {
	self := SelfTimes(r.Spans)
	hit := make(map[int]bool, len(r.HitRuns))
	for _, id := range r.HitRuns {
		hit[id] = true
	}
	by := map[string][]float64{}
	var searchSelf []float64
	for i, s := range r.Spans {
		name := s.Name
		if hit[i] {
			name = "kor.run.hit"
		}
		by[name] = append(by[name], s.Duration().Seconds())
		if s.Name == "core.search" {
			searchSelf = append(searchSelf, self[i].Seconds())
		}
	}
	p50 := func(xs []float64) float64 { return stats.Summarize(xs).P50 }
	out := map[string]float64{
		"korapi.decode_us": p50(by["korapi.decode"]) * 1e6,
		"korapi.encode_us": p50(by["korapi.encode"]) * 1e6,
		"kor.run_hit_us":   p50(by["kor.run.hit"]) * 1e6,
		"kor.run_miss_ms":  p50(by["kor.run"]) * 1e3,
		"kor.patch_ms":     p50(by["kor.patch"]) * 1e3,
		"graph.apply_ms":   p50(by["graph.apply"]) * 1e3,
		"graph.load_s":     p50(by["graph.load"]),
		"apsp.build_s":     p50(by["apsp.build"]),
		"core.search_ms":   p50(by["core.search"]) * 1e3,
		"core.self_ms":     p50(searchSelf) * 1e3,
	}
	var labels, dominated, planSweeps, shared, oracleCalls, postingCalls float64
	var oracleTime time.Duration
	for _, s := range r.Searches {
		labels += float64(s.Metrics.LabelsCreated)
		dominated += float64(s.Metrics.Dominated + s.Metrics.DominatedSwept)
		planSweeps += float64(s.Metrics.PlanSweeps)
		shared += float64(s.Metrics.SharedSweeps)
		oracleCalls += float64(s.Oracle.Calls)
		oracleTime += s.Oracle.Time
		postingCalls += float64(s.Postings.Calls)
	}
	n := float64(max(1, len(r.Searches)))
	out["core.labels_per_query"] = labels / n
	out["core.dominated_share"] = dominated / max(1, labels)
	out["core.plan_sweeps_per_query"] = planSweeps / n
	out["core.shared_sweeps_per_query"] = shared / n
	out["core.no_route_share"] = float64(r.NoRoute) / float64(max(1, r.Reads))
	out["apsp.ms_per_query"] = oracleTime.Seconds() * 1e3 / n
	out["apsp.calls_per_query"] = oracleCalls / n
	out["graph.postings_per_query"] = postingCalls / n
	out["trace.overhead_share"] = (r.Traced.Seconds() - r.Untraced.Seconds()) / r.Untraced.Seconds()
	return out
}
