// Package workload defines the benchmark's workloads: the graphs korserve
// serves, prepared once per checkout, and the request streams generated from
// a seed. korserve only ever sees the generated requests; the seed stays on
// the benchmark's side.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"kor/internal/core"
	"kor/internal/graph"
	"kor/internal/queryset"
	"kor/korapi"
)

// Spec fixes one workload. Rates and list sizes are constants of the
// benchmark, never derived at run time, so a parent commit and a change are
// driven by exactly the same traffic.
type Spec struct {
	Name string
	// Graph names the prepared graph: GraphRoad or GraphCity.
	Graph string
	// Indexed serves the graph from its persistent distance index
	// (korserve -dist-index).
	Indexed bool
	// Rate is the open-loop send rate in requests per second, fixed when
	// the benchmark was defined (README.md gives each workload's reason).
	Rate float64
	// ClosedPerSecond sizes the closed-loop request list: this many reads
	// per second of the run.
	ClosedPerSecond float64
	// Pool, when positive, draws every read Zipf-skewed over this many
	// ranks, each rank drawn holding a distinct request. Zero makes every
	// read of a run distinct.
	Pool int
	// ZipfS is the skew of pooled reads: rank r has weight (1+r)^-ZipfS.
	ZipfS float64
	// PatchEvery, when positive, sends a keyword add/remove flap to the
	// admin patch endpoint after every PatchEvery reads.
	PatchEvery int
	// Budget is the budget limit Δ of every request.
	Budget float64
	// TraceReads is how many reads from the start of the closed list the
	// traced run replays.
	TraceReads int
	// ProbeFlaps is how many keyword add/remove pairs the patch probe sends
	// on workloads whose stream has no patches.
	ProbeFlaps int
}

// The prepared graphs.
const (
	GraphRoad = "road8k"
	GraphCity = "city"
)

// Specs lists every workload. BENCHMARK.json gates the first two; the
// others run by hand (README.md says why).
var Specs = []Spec{
	{
		// Every read distinct: the result cache and flights never hit, so
		// label search and lazy oracle sweeps do nearly all the work.
		Name: "lazy-unique", Graph: GraphRoad,
		Rate: 40, ClosedPerSecond: 16, Budget: 9, TraceReads: 128, ProbeFlaps: 40,
	},
	{
		// Zipf reads over a pool far larger than the result cache on the
		// road network: most reads are cache hits that cost korserve and
		// korapi a fraction of a millisecond, and the misses, nearly all
		// first sightings, run label searches over lazy sweeps.
		Name: "road-zipf", Graph: GraphRoad,
		Rate: 200, ClosedPerSecond: 100, Pool: 12288, ZipfS: 1.2, Budget: 9, TraceReads: 1000, ProbeFlaps: 40,
	},
	{
		// Zipf reads over a pool twice the result cache on the dense
		// matrix oracle: cache hits and evictions, cheap misses, and the
		// per-request cost of korserve and korapi.
		Name: "city-zipf", Graph: GraphCity,
		Rate: 500, ClosedPerSecond: 1000, Pool: 2048, ZipfS: 1.1, Budget: 6, TraceReads: 2000, ProbeFlaps: 4,
	},
	{
		// The road network from its partition index, Zipf reads over a pool
		// larger than korserve's 1,024-entry result cache: cold slice
		// builds, cache hits, flights and per-request overhead.
		Name: "indexed-zipf", Graph: GraphRoad, Indexed: true,
		Rate: 150, ClosedPerSecond: 40, Pool: 1536, ZipfS: 1.8, Budget: 9, TraceReads: 48, ProbeFlaps: 40,
	},
	{
		// Writes beside reads: every patch rebuilds the dense matrix and
		// clears the result cache, and the read tail pays for it.
		Name: "city-churn", Graph: GraphCity,
		Rate: 1000, ClosedPerSecond: 450, Pool: 640, ZipfS: 1.1, PatchEvery: 2000, Budget: 6, TraceReads: 2500,
	},
}

// Lookup returns the named workload.
func Lookup(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(Specs))
	for i, s := range Specs {
		names[i] = s.Name
	}
	return Spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// openShare is the share of a run's seconds the open-loop schedule lasts.
const openShare = 0.8

// Sizes returns the number of reads in the closed-loop list and in the
// open-loop schedule for a run of the given length.
func (s Spec) Sizes(seconds int) (closed, open int) {
	closed = int(math.Ceil(s.ClosedPerSecond * float64(seconds)))
	open = int(math.Ceil(s.Rate * float64(seconds) * openShare))
	return closed, open
}

// Item is one step of a phase: a route read, or an admin patch when Patch is
// set.
type Item struct {
	Req   korapi.Request `json:"req,omitzero"`
	Patch *korapi.Delta  `json:"patch,omitempty"`
}

// Query encodes the read as the URL query of GET /v1/route.
func (it Item) Query() string {
	r := it.Req
	v := url.Values{}
	v.Set("from", strconv.FormatInt(r.From, 10))
	v.Set("to", strconv.FormatInt(r.To, 10))
	v.Set("keywords", strings.Join(r.Keywords, ","))
	v.Set("budget", strconv.FormatFloat(r.Budget, 'g', -1, 64))
	v.Set("algorithm", r.Algorithm)
	return v.Encode()
}

// Plan is everything one run sends: the patch probe, the closed-loop list,
// the open-loop schedule and the verification sample, in that order.
type Plan struct {
	Closed []Item `json:"closed"`
	Open   []Item `json:"open"`
	// PatchProbe times the admin patch path on workloads whose stream has
	// no patches; it runs on the freshly booted server, before the measured
	// phases.
	PatchProbe []korapi.Delta `json:"patch_probe"`
	// Verify is the fixed verification sample: the same requests on every
	// seed, checked against the exact optimum.
	Verify []korapi.Request `json:"verify"`
}

// Digest identifies the plan's contents; two runs with equal digests sent
// identical traffic.
func (p *Plan) Digest() string {
	b, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("workload: encoding plan: %v", err)) // plain data always encodes
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// algorithms is the read mix: the paper's two approximation algorithms and
// its greedy heuristic.
var algorithms = []string{
	string(core.AlgorithmBucketBound),
	string(core.AlgorithmOSScaling),
	string(core.AlgorithmGreedy),
}

// verifySeed fixes the verification sample across seeds, so objective_ratio
// compares the same queries on every run; rankSeed fixes the Zipf rank
// sequence of pooled reads.
const (
	verifySeed  = 7
	verifyCount = 36
	rankSeed    = 11
)

// NewPlan generates the run's traffic for spec on g from seed.
func NewPlan(g *graph.Graph, s Spec, seed int64, seconds int) (*Plan, error) {
	idx := graph.NewMemIndex(g)
	nClosed, nOpen := s.Sizes(seconds)
	seen := make(map[string]bool)
	verify, err := distinct(g, idx, s, verifySeed, verifyCount, seen)
	if err != nil {
		return nil, err
	}
	p := &Plan{Verify: verify}
	rng := rand.New(rand.NewSource(seed))
	var reads []korapi.Request
	if s.Pool > 0 {
		// The rank sequence is the same on every seed, so every run has
		// the same pattern of cache hits and misses; the seed decides
		// which request holds each rank. Only the ranks drawn get a
		// request, in the order they first appear.
		zipf := rand.NewZipf(rand.New(rand.NewSource(rankSeed)), s.ZipfS, 1, uint64(s.Pool-1))
		ranks := make([]uint64, nClosed+nOpen)
		slot := map[uint64]int{}
		for i := range ranks {
			ranks[i] = zipf.Uint64()
			if _, ok := slot[ranks[i]]; !ok {
				slot[ranks[i]] = len(slot)
			}
		}
		pool, err := distinct(g, idx, s, rng.Int63(), len(slot), map[string]bool{})
		if err != nil {
			return nil, err
		}
		for _, r := range ranks {
			reads = append(reads, pool[slot[r]])
		}
	} else {
		// seen already holds the verification sample, so the stream never
		// repeats one of its requests either.
		reads, err = distinct(g, idx, s, rng.Int63(), nClosed+nOpen, seen)
		if err != nil {
			return nil, err
		}
	}
	add, remove, err := Flap(g, idx)
	if err != nil {
		return nil, err
	}
	patches := 0
	nextPatch := func() *korapi.Delta {
		patches++
		if patches%2 == 1 {
			return &add
		}
		return &remove
	}
	split := func(reads []korapi.Request, sent *int) []Item {
		var items []Item
		for _, r := range reads {
			items = append(items, Item{Req: r})
			*sent++
			if s.PatchEvery > 0 && *sent%s.PatchEvery == 0 {
				items = append(items, Item{Patch: nextPatch()})
			}
		}
		return items
	}
	sent := 0
	p.Closed = split(reads[:nClosed], &sent)
	p.Open = split(reads[nClosed:], &sent)
	if s.PatchEvery == 0 {
		for range s.ProbeFlaps {
			p.PatchProbe = append(p.PatchProbe, add, remove)
		}
	}
	return p, nil
}

// Key is the identity of a read: two reads with equal keys are answered
// from the same korserve cache entry.
func Key(r korapi.Request) string {
	kws := slices.Clone(r.Keywords)
	slices.Sort(kws)
	return fmt.Sprintf("%s|%d|%d|%g|%s", r.Algorithm, r.From, r.To, r.Budget, strings.Join(kws, ","))
}

// distinct draws n reads in the experiment harness's road-cell shape —
// m ∈ [4,6] keywords from the most frequent 12% of terms, endpoints within
// 0.45Δ — skipping any read whose key is already in seen and adding the
// drawn keys to it.
func distinct(g *graph.Graph, idx graph.PostingSource, s Spec, seed int64, n int, seen map[string]bool) ([]korapi.Request, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]korapi.Request, 0, n)
	for batch := 0; len(out) < n; batch++ {
		if batch > 64+n {
			return nil, fmt.Errorf("workload %s: drew only %d of %d distinct requests", s.Name, len(out), n)
		}
		qs := queryset.Generate(g, idx, queryset.Spec{
			Seed:            rng.Int63(),
			Count:           16,
			Keywords:        4 + rng.Intn(3),
			Budget:          s.Budget,
			MaxCrowKm:       0.45 * s.Budget,
			PlanarCoords:    s.Graph == GraphRoad,
			TopTermFraction: 0.12,
		})
		for _, q := range qs {
			r := korapi.Request{
				From:      int64(q.Source),
				To:        int64(q.Target),
				Budget:    q.Budget,
				Algorithm: algorithms[len(out)%len(algorithms)],
			}
			for _, t := range q.Keywords {
				r.Keywords = append(r.Keywords, g.Vocab().Name(t))
			}
			k := Key(r)
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, r)
			if len(out) == n {
				break
			}
		}
	}
	return out, nil
}

// Flap returns the keyword patch pair the benchmark flaps: add the graph's
// most frequent keyword to the middle node that lacks it, then remove it
// again. The pair changes no edge, and after the removal the graph is the
// original one.
func Flap(g *graph.Graph, idx graph.PostingSource) (add, remove korapi.Delta, err error) {
	best, bestDF := graph.Term(-1), -1
	for t := graph.Term(0); int(t) < g.Vocab().Len(); t++ {
		if df := idx.DocFrequency(t); df > bestDF {
			best, bestDF = t, df
		}
	}
	if best < 0 {
		return add, remove, fmt.Errorf("workload: graph has no keywords to flap")
	}
	n := g.NumNodes()
	for i := range n {
		v := graph.NodeID((n/2 + i) % n)
		if !g.HasTerm(v, best) {
			kw := []korapi.DeltaKeywords{{Node: int64(v), Keywords: []string{g.Vocab().Name(best)}}}
			return korapi.Delta{AddKeywords: kw}, korapi.Delta{RemoveKeywords: kw}, nil
		}
	}
	return add, remove, fmt.Errorf("workload: every node already carries %q", g.Vocab().Name(best))
}
