package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"

	"kor/internal/core"
	"kor/internal/graph"
	"kor/korperf/check"
	"kor/korperf/load"
	"kor/korperf/trace"
	"kor/korperf/workload"
)

// setupBoots is how many times a run boots korserve; setup_s is the median.
const setupBoots = 7

// hitProbe is how many of the closed list's last reads the traced replay
// sends again, so the cache-hit path is timed on every workload.
const hitProbe = 32

// exchange is one request sent to korserve and what came back.
type exchange struct {
	phase  string
	item   workload.Item
	sample load.Sample
	// quiet marks an open-loop read that saw no steal.
	quiet bool
}

func run(ctx context.Context, o options) (*record, error) {
	spec, err := workload.Lookup(o.workload)
	if err != nil {
		return nil, err
	}
	prep, err := workload.Prepare(filepath.Join(o.work, "data"), spec)
	if err != nil {
		return nil, err
	}
	plan, err := workload.NewPlan(prep.Graph, spec, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	versions, err := flapVersions(prep.Graph)
	if err != nil {
		return nil, err
	}
	checker := check.New(versions...)
	rec := &record{
		Identity: identity{
			Workload:     spec.Name,
			Seed:         o.seed,
			Seconds:      o.seconds,
			Graphs:       fingerprints(versions),
			StreamDigest: plan.Digest(),
			Korserve:     buildIdentity(o.korserve),
		},
		EndToEnd:    map[string]float64{},
		PerLayer:    map[string]float64{},
		Failures:    map[string]int{},
		IndexBuildS: prep.IndexBuild.Seconds(),
	}

	args := []string{"-graph", prep.GraphPath}
	if prep.IndexPath != "" {
		args = append(args, "-dist-index", prep.IndexPath)
	}
	if err := os.MkdirAll(filepath.Join(o.work, "logs"), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(o.work, "logs", "korserve-"+spec.Name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	var srv *server
	var setups []float64
	for i := range setupBoots {
		s, d, err := startServer(ctx, o.korserve, args, logf)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupBoots-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	rec.SetupSamplesS = setups
	rec.EndToEnd["setup_s"] = median(setups)

	conns := load.Conns(runtime.NumCPU())
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()

	probeItems := make([]workload.Item, len(plan.PatchProbe))
	for i := range plan.PatchProbe {
		probeItems[i] = workload.Item{Patch: &plan.PatchProbe[i]}
	}
	probe, _ := load.Closed(ctx, len(probeItems), 1, doer(client, srv.base, probeItems))
	before, err := srv.scrape(ctx, client)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	restoreGC := pauseGC()
	closed, closedWall := load.Closed(ctx, len(plan.Closed), conns, doer(client, srv.base, plan.Closed))
	restoreGC()
	cpu1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	restoreGC = pauseGC()
	meter := startSteal()
	open, _ := load.Open(ctx, len(plan.Open), conns, spec.Rate, doer(client, srv.base, plan.Open))
	steal := meter.finish()
	restoreGC()
	after, err := srv.scrape(ctx, client)
	if err != nil {
		return nil, err
	}
	verifyItems := make([]workload.Item, len(plan.Verify))
	for i, r := range plan.Verify {
		verifyItems[i] = workload.Item{Req: r}
	}
	verify, _ := load.Closed(ctx, len(verifyItems), conns, doer(client, srv.base, verifyItems))
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	rec.EndToEnd["peak_rss_mb"] = rss
	srv.stop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Open-loop latency counts the reads that saw no steal: when the
	// hypervisor takes a CPU away for milliseconds, it, not korserve, sets
	// the latency of the reads in flight.
	intervals := make([][2]time.Duration, len(open))
	for i, s := range open {
		intervals[i] = [2]time.Duration{s.Start(), s.Done}
	}
	quiet := quietSamples(steal, intervals)
	var exchanges []exchange
	for _, ph := range []struct {
		name    string
		items   []workload.Item
		samples []load.Sample
	}{
		{"probe", probeItems, probe},
		{"closed", plan.Closed, closed},
		{"open", plan.Open, open},
		{"verify", verifyItems, verify},
	} {
		for i, s := range ph.samples {
			exchanges = append(exchanges, exchange{ph.name, ph.items[i], s, ph.name == "open" && quiet[i]})
		}
	}

	// Check every answer. Open-loop latency counts every quiet read,
	// answered or not; the other timings come from accepted answers.
	var latencies, allLatencies, lags, overheads, patches []float64
	var bodyBytes, reads, patchCount int
	answers := make([]check.Answer, len(plan.Verify))
	verifyIdx := 0
	for _, ex := range exchanges {
		rec.Attempted++
		s := ex.sample
		if ex.phase == "open" {
			lags = append(lags, ms(s.Lag()))
			if ex.item.Patch == nil {
				allLatencies = append(allLatencies, ms(s.Latency()))
				if ex.quiet {
					latencies = append(latencies, ms(s.Latency()))
				}
			}
		}
		if ex.item.Patch != nil {
			patchCount++
			if s.Err != nil || s.Status != http.StatusOK {
				rec.fail("patch_failed", fmt.Sprintf("status %d, %v", s.Status, s.Err))
				continue
			}
			patches = append(patches, ms(s.RoundTrip()))
			continue
		}
		a, err := checker.Route(ex.item.Req, s.Status, s.Body, s.Err)
		if err != nil {
			var f *check.Failure
			if !errors.As(err, &f) {
				return nil, err
			}
			rec.fail(f.Reason, f.Detail)
			a = check.Answer{}
		}
		if ex.phase == "verify" {
			answers[verifyIdx] = a
			verifyIdx++
			continue
		}
		if err != nil {
			continue
		}
		reads++
		bodyBytes += len(s.Body)
		if !a.NoRoute {
			overheads = append(overheads, ms(s.RoundTrip())-a.ElapsedMS)
		}
	}

	ratio, err := verifyAgainstExact(ctx, rec, checker, plan, answers, finalVersion(versions, patchCount))
	if err != nil {
		return nil, err
	}
	rec.EndToEnd["objective_ratio"] = ratio
	rec.EndToEnd["latency_p50_ms"] = quantile(latencies, 0.50)
	rec.EndToEnd["latency_p99_ms"] = quantile(latencies, 0.99)
	rec.EndToEnd["capacity_qps"] = float64(countReads(plan.Closed)) / closedWall.Seconds()
	rec.EndToEnd["ok_share"] = 1 - float64(rec.Failed)/float64(rec.Attempted)
	rec.EndToEnd["patch_p50_ms"] = median(patches)
	rec.LatencyMS, rec.LatencyAllMS = map[string]float64{}, map[string]float64{}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 1} {
		rec.LatencyMS[strconv.FormatFloat(q, 'g', -1, 64)] = quantile(latencies, q)
		rec.LatencyAllMS[strconv.FormatFloat(q, 'g', -1, 64)] = quantile(allLatencies, q)
	}
	rec.StealShare = stealShare(steal, runtime.NumCPU())
	rec.Samples = sampleCounts{
		Closed:     len(closed),
		Open:       len(open),
		Verify:     len(verify),
		Patches:    patchCount,
		Latency:    len(latencies),
		LatencyAll: len(allLatencies),
		BeyondP99:  len(latencies) - int(math.Ceil(0.99*float64(len(latencies)))),
	}

	if !o.trace {
		return rec, nil
	}

	// Per-layer metrics measured on korserve over HTTP.
	rec.PerLayer["korserve.cpu_ms_per_query"] = ms(cpu1-cpu0) / float64(max(1, countReads(plan.Closed)))
	rec.PerLayer["korserve.overhead_p50_ms"] = median(overheads)
	rec.PerLayer["korapi.response_bytes"] = float64(bodyBytes) / float64(max(1, reads))
	delta := func(series string) float64 { return after[series] - before[series] }
	hit := delta(`kor_engine_cache_requests_total{result="hit"}`)
	miss := delta(`kor_engine_cache_requests_total{result="miss"}`)
	coalesced := delta(`kor_engine_cache_requests_total{result="coalesced"}`)
	lookups := max(1, hit+miss+coalesced)
	rec.PerLayer["kor.cache_hit_ratio"] = hit / lookups
	rec.PerLayer["kor.coalesced_share"] = coalesced / lookups
	rec.PerLayer["apsp.sweeps_per_query"] = delta("kor_engine_oracle_sweeps") / float64(max(1, countReads(plan.Closed)+countReads(plan.Open)))
	rec.PerLayer["bench.send_lag_p99_ms"] = quantile(lags, 0.99)

	// Per-layer metrics from the in-process traced replay of the closed
	// list, a cache-hit probe, and the patch probe.
	items := tracePrefix(plan.Closed, spec.TraceReads)
	items = append(items, hitProbeItems(items)...)
	items = append(items, probeItems...)
	rep, err := trace.Replay(ctx, trace.Config{GraphPath: prep.GraphPath, IndexPath: prep.IndexPath, Items: items})
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	for k, v := range rep.Metrics() {
		rec.PerLayer[k] = v
	}
	rec.TraceMismatches = rep.Mismatches
	spanDir := filepath.Join(o.work, "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	rec.SpanFile = filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", spec.Name, o.seed))
	if err := writeSpans(rec.SpanFile, rep.Spans); err != nil {
		return nil, err
	}
	return rec, nil
}

// doer sends items[i] to the server at base: a GET /v1/route for a read,
// a POST /v1/admin/patch for a patch. Requests are encoded up front so the
// phase times only the exchange.
func doer(c *http.Client, base string, items []workload.Item) load.Doer {
	urls := make([]string, len(items))
	bodies := make([][]byte, len(items))
	for i, it := range items {
		if it.Patch != nil {
			urls[i] = base + "/v1/admin/patch"
			b, err := json.Marshal(it.Patch)
			if err != nil {
				panic(err) // a korapi.Delta always encodes
			}
			bodies[i] = b
		} else {
			urls[i] = base + "/v1/route?" + it.Query()
		}
	}
	return func(ctx context.Context, i int) (int, []byte, error) {
		method, body := http.MethodGet, io.Reader(nil)
		if bodies[i] != nil {
			method, body = http.MethodPost, bytes.NewReader(bodies[i])
		}
		req, err := http.NewRequestWithContext(ctx, method, urls[i], body)
		if err != nil {
			return 0, nil, err
		}
		return do(c, req)
	}
}

// flapVersions returns every graph version the keyword flap visits: the
// original, with the keyword added, and after its removal (which should be
// the original again).
func flapVersions(g *graph.Graph) ([]*graph.Graph, error) {
	add, remove, err := workload.Flap(g, graph.NewMemIndex(g))
	if err != nil {
		return nil, err
	}
	da, err := add.KorDelta()
	if err != nil {
		return nil, err
	}
	dr, err := remove.KorDelta()
	if err != nil {
		return nil, err
	}
	g1, err := g.Apply(da)
	if err != nil {
		return nil, err
	}
	g2, err := g1.Apply(dr)
	if err != nil {
		return nil, err
	}
	if g2.Fingerprint() == g.Fingerprint() {
		return []*graph.Graph{g, g1}, nil
	}
	return []*graph.Graph{g, g1, g2}, nil
}

// finalVersion is the graph korserve serves after n flap patches.
func finalVersion(versions []*graph.Graph, n int) *graph.Graph {
	if n == 0 {
		return versions[0]
	}
	if n%2 == 1 {
		return versions[1]
	}
	return versions[len(versions)-1]
}

// verifyAgainstExact runs the exact algorithm in process on every
// verification request, checks korserve's answer against it, and returns
// the mean ratio of served to optimal objective over the feasible answers.
func verifyAgainstExact(ctx context.Context, rec *record, c *check.Checker, plan *workload.Plan, answers []check.Answer, final *graph.Graph) (float64, error) {
	searchers := map[string]*core.Searcher{}
	var sum float64
	var n int
	for i, req := range plan.Verify {
		a := answers[i]
		if !a.NoRoute && a.Snapshot == "" {
			continue // rejected by the checker and already counted
		}
		g := final
		if a.Snapshot != "" {
			g = c.Graph(a.Snapshot)
		}
		fp := check.Fingerprint(g)
		s := searchers[fp]
		if s == nil {
			s = core.NewSearcher(g, nil, nil)
			searchers[fp] = s
		}
		q := core.Query{Source: graph.NodeID(req.From), Target: graph.NodeID(req.To), Budget: req.Budget}
		for _, kw := range req.Keywords {
			t, ok := g.Vocab().Lookup(kw)
			if !ok {
				return 0, fmt.Errorf("verification keyword %q not in graph", kw)
			}
			q.Keywords = append(q.Keywords, t)
		}
		res, err := s.Run(ctx, core.AlgorithmExact, q, core.DefaultOptions())
		if err != nil && !errors.Is(err, core.ErrNoRoute) {
			return 0, fmt.Errorf("exact search: %w", err)
		}
		found := err == nil && len(res.Routes) > 0 && res.Routes[0].Feasible
		var exact float64
		if found {
			exact = res.Routes[0].Objective
		}
		if err := check.Verify(req, a, exact, found); err != nil {
			var f *check.Failure
			if !errors.As(err, &f) {
				return 0, err
			}
			rec.fail(f.Reason, f.Detail)
			continue
		}
		if found && a.Feasible {
			sum += a.Objective / exact
			n++
		}
	}
	if n == 0 {
		return 0, errors.New("no verification request had a feasible answer to compare")
	}
	return sum / float64(n), nil
}

// tracePrefix returns the items of list up to and including its n-th read.
func tracePrefix(list []workload.Item, n int) []workload.Item {
	reads := 0
	for i, it := range list {
		if it.Patch == nil {
			reads++
		}
		if reads == n {
			return slices.Clone(list[:i+1])
		}
	}
	return slices.Clone(list)
}

// hitProbeItems returns the last reads of items after its last patch,
// which the traced replay's engine still holds in its cache.
func hitProbeItems(items []workload.Item) []workload.Item {
	var out []workload.Item
	for i := len(items) - 1; i >= 0 && len(out) < hitProbe; i-- {
		if items[i].Patch != nil {
			break
		}
		out = append(out, items[i])
	}
	slices.Reverse(out)
	return out
}

func countReads(items []workload.Item) int {
	n := 0
	for _, it := range items {
		if it.Patch == nil {
			n++
		}
	}
	return n
}

func fingerprints(gs []*graph.Graph) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = check.Fingerprint(g)
	}
	return out
}

// buildIdentity names the korserve build: the VCS revision when the build
// recorded one, and always the binary's digest (the build is -trimpath, so
// the same source gives the same digest in any checkout).
func buildIdentity(bin string) korserveBuild {
	var id korserveBuild
	if info, err := buildinfo.ReadFile(bin); err == nil {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				id.Revision = s.Value
			}
		}
	}
	if f, err := os.Open(bin); err == nil {
		h := sha256.New()
		if _, err := io.Copy(h, f); err == nil {
			id.BinarySHA256 = hex.EncodeToString(h.Sum(nil))
		}
		f.Close()
	}
	return id
}

func writeSpans(path string, spans []trace.Span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// gcLimit is the heap size at which the generator collects garbage while
// a measured phase runs.
const gcLimit = 384 << 20

// pauseGC collects garbage now and then holds the generator's collector
// off until its heap reaches gcLimit, so that its mark work does not take
// CPU from korserve in the middle of a measured phase. The returned
// function restores the previous settings.
func pauseGC() (restore func()) {
	runtime.GC()
	percent := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(gcLimit)
	return func() {
		debug.SetGCPercent(percent)
		debug.SetMemoryLimit(limit)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }
