package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"kor/internal/apsp"
	"kor/internal/graph"
)

// Tests for the cross-query shared sweep cache (sweepshare.go). The headline
// property is bit-identical answers: a Searcher with sharing enabled —
// hammered concurrently, so sweeps really are reused across plans — must
// return exactly what a sharing-disabled Searcher returns query by query, on
// both oracle flavours. Run with -race.

// renderSweepOutcome flattens a search outcome to full precision: every
// route's node sequence, objective and budget, plus the error. Two outcomes
// render equal iff they are bit-identical answers.
func renderSweepOutcome(res Result, err error) string {
	out := ""
	if err != nil {
		out = "error: " + err.Error() + " "
	}
	for _, r := range res.Routes {
		out += fmt.Sprintf("[%s %x %x] ", routeSignature(r), r.Objective, r.Budget)
	}
	return out
}

// sweepShareQueries builds queries engineered to overlap: all of them drawn
// from two endpoint pairs with per-pair budgets, random keyword sets. This is
// the duplicate-heavy shape the shared cache exists for — σ sweeps into the
// shared targets and tail sweeps out of them are reusable across the mix.
func sweepShareQueries(rng *rand.Rand, g *graph.Graph, n int) []Query {
	base := []Query{randomQuery(rng, g, 1), randomQuery(rng, g, 1)}
	queries := make([]Query, n)
	for i := range queries {
		q := randomQuery(rng, g, 1+rng.Intn(2))
		b := base[i%len(base)]
		q.Source, q.Target, q.Budget = b.Source, b.Target, b.Budget
		queries[i] = q
	}
	return queries
}

func TestSweepShareEquivalence(t *testing.T) {
	type runner struct {
		name string
		run  func(*Searcher, Query) (Result, error)
	}
	topkOpts := DefaultOptions()
	topkOpts.K = 3
	looseOpts := DefaultOptions()
	looseOpts.Epsilon = 0.5
	runners := []runner{
		{"bucketbound", func(s *Searcher, q Query) (Result, error) { return s.BucketBound(q, DefaultOptions()) }},
		{"osscaling", func(s *Searcher, q Query) (Result, error) { return s.OSScaling(q, DefaultOptions()) }},
		{"osscaling-loose", func(s *Searcher, q Query) (Result, error) { return s.OSScaling(q, looseOpts) }},
		{"topk", func(s *Searcher, q Query) (Result, error) { return s.OSScaling(q, topkOpts) }},
		{"exact", func(s *Searcher, q Query) (Result, error) { return s.Exact(q, DefaultOptions()) }},
		{"greedy", func(s *Searcher, q Query) (Result, error) { return s.Greedy(q, DefaultOptions()) }},
	}

	for _, dense := range []bool{false, true} {
		name := "lazy"
		if dense {
			name = "indexed"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8812))
			totalShared := 0
			for trial := 0; trial < 5; trial++ {
				g := randomKeywordGraph(rng, 10+rng.Intn(5), 4)
				shared := searcherFor(t, g, dense)
				private := searcherFor(t, g, dense)
				private.SetSweepSharing(false)
				queries := sweepShareQueries(rng, g, 8)

				// Reference answers: sharing off, strictly sequential.
				want := make([][]string, len(queries))
				for qi, q := range queries {
					want[qi] = make([]string, len(runners))
					for ri, r := range runners {
						res, err := r.run(private, q)
						if res.Metrics.SharedSweeps != 0 {
							t.Fatalf("sharing-disabled searcher reported %d shared sweeps", res.Metrics.SharedSweeps)
						}
						want[qi][ri] = renderSweepOutcome(res, err)
					}
				}

				// Sharing on, every (query, algorithm) pair concurrent: plans
				// contend on the one sweepShare and must still answer
				// bit-identically.
				var wg sync.WaitGroup
				var mu sync.Mutex
				for qi, q := range queries {
					for ri, r := range runners {
						wg.Add(1)
						go func(qi, ri int, q Query, r runner) {
							defer wg.Done()
							res, err := r.run(shared, q)
							got := renderSweepOutcome(res, err)
							mu.Lock()
							totalShared += res.Metrics.SharedSweeps
							if got != want[qi][ri] {
								t.Errorf("trial %d %s query %d diverged under sweep sharing:\n got %s\nwant %s",
									trial, r.name, qi, got, want[qi][ri])
							}
							mu.Unlock()
						}(qi, ri, q, r)
					}
				}
				wg.Wait()
			}
			// A dense oracle answers σ/τ from its slices and never sweeps at
			// the plan layer, so only the lazy flavour can prove the cache
			// engaged.
			if !dense && totalShared == 0 {
				t.Fatal("no sweep was ever shared — the cache never engaged on a duplicate-heavy mix")
			}
		})
	}
}

// TestSweepShareToggle: SetSweepSharing flips live. Disabling empties the
// cache and stops sharing; re-enabling starts fresh and answers stay
// identical throughout.
func TestSweepShareToggle(t *testing.T) {
	rng := rand.New(rand.NewSource(4411))
	g := randomKeywordGraph(rng, 12, 4)
	s := searcherFor(t, g, false)
	queries := sweepShareQueries(rng, g, 6)

	run := func() []string {
		out := make([]string, len(queries))
		for i, q := range queries {
			res, err := s.BucketBound(q, DefaultOptions())
			out[i] = renderSweepOutcome(res, err)
		}
		return out
	}
	first := run() // sharing on (default)
	s.SetSweepSharing(false)
	second := run()
	s.SetSweepSharing(true)
	third := run()
	for i := range queries {
		if first[i] != second[i] || second[i] != third[i] {
			t.Fatalf("query %d answers differ across toggles:\n on   %s\n off  %s\n back %s",
				i, first[i], second[i], third[i])
		}
	}
	// Disabled really means private sweeps.
	s.SetSweepSharing(false)
	for _, q := range queries {
		res, err := s.BucketBound(q, DefaultOptions())
		if err == nil && res.Metrics.SharedSweeps != 0 {
			t.Fatalf("disabled searcher shared %d sweeps", res.Metrics.SharedSweeps)
		}
	}
}

// TestSweepShareBoundUpgrade pins the bound semantics of the raw cache: a
// wider cached sweep serves narrower requests verbatim; a request wider than
// the cached bound recomputes and replaces the entry.
func TestSweepShareBoundUpgrade(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomKeywordGraph(rng, 12, 4)
	c := &sweepShare{cap: 8}

	sw1, shared := c.get(g, 0, apsp.ByBudget, 5)
	if shared {
		t.Fatal("cold get claimed to share")
	}
	sw2, shared := c.get(g, 0, apsp.ByBudget, 3)
	if !shared || sw2 != sw1 {
		t.Fatal("narrower request did not reuse the wider cached sweep")
	}
	sw3, shared := c.get(g, 0, apsp.ByBudget, 9)
	if shared || sw3 == sw1 {
		t.Fatal("request wider than the cached bound must recompute")
	}
	if sw4, shared := c.get(g, 0, apsp.ByBudget, 9); !shared || sw4 != sw3 {
		t.Fatal("replacement entry not served")
	}
	// A different metric is a different key.
	if _, shared := c.get(g, 0, apsp.ByObjective, 1); shared {
		t.Fatal("metrics must not share sweeps")
	}
	// As is a different root.
	if _, shared := c.get(g, 1, apsp.ByBudget, 1); shared {
		t.Fatal("roots must not share sweeps")
	}
}

// TestSweepShareEviction: the FIFO evicts by the exact (key, entry) ref it
// enqueued — evicting a ref whose key was since replaced must not drop the
// replacement.
func TestSweepShareEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomKeywordGraph(rng, 12, 4)
	c := &sweepShare{cap: 2}

	c.get(g, 0, apsp.ByBudget, 2)          // ref A: key 0, soon replaced
	sw, _ := c.get(g, 0, apsp.ByBudget, 6) // ref B: key 0, replacement
	c.get(g, 1, apsp.ByBudget, 2)          // ref C — evicts ref A (stale: key 0 now holds B)
	if got, shared := c.get(g, 0, apsp.ByBudget, 6); !shared || got != sw {
		t.Fatal("evicting a stale ref dropped the live replacement entry")
	}
	// One more insert evicts ref B, the live key-0 entry.
	c.get(g, 2, apsp.ByBudget, 2)
	if _, shared := c.get(g, 0, apsp.ByBudget, 6); shared {
		t.Fatal("key 0 should have been evicted")
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	if n > 4 {
		t.Fatalf("cache holds %d entries, cap is 2 (plus bounded slack)", n)
	}
}

// budgetSpy is a lazy oracle that counts every σ request reaching it.
type budgetSpy struct {
	*apsp.LazyOracle
	mu          sync.Mutex
	minBudget   int
	budgetPaths int
}

func (s *budgetSpy) MinBudget(from, to graph.NodeID) (float64, float64, bool) {
	s.mu.Lock()
	s.minBudget++
	s.mu.Unlock()
	return s.LazyOracle.MinBudget(from, to)
}

func (s *budgetSpy) MinBudgetPath(from, to graph.NodeID) ([]graph.NodeID, bool) {
	s.mu.Lock()
	s.budgetPaths++
	s.mu.Unlock()
	return s.LazyOracle.MinBudgetPath(from, to)
}

// TestLazySigmaTailsUseBoundedSweeps: on a sweep-backed oracle every
// σ(·, target) lookup — the plan's budget tails, Greedy's budget-priority
// start check, its σ final leg and that leg's path — is answered from the
// plan's Δ-bounded sweep into the target, so LazyOracle.MinBudget is never
// called and no full-graph σ sweep runs. The searches must still succeed.
func TestLazySigmaTailsUseBoundedSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	budgetFirst := DefaultOptions()
	budgetFirst.BudgetPriority = true
	greedy2 := DefaultOptions()
	greedy2.Width = 2
	greedy2.BudgetPriority = true
	found, greedyBounded := 0, 0
	for trial := 0; trial < 40; trial++ {
		g := randomKeywordGraph(rng, 10+rng.Intn(20), 5)
		spy := &budgetSpy{LazyOracle: apsp.NewLazyOracle(g)}
		s := NewSearcher(g, spy, nil)
		q := randomQuery(rng, g, 1+rng.Intn(3))
		for _, run := range []func() (Result, error){
			func() (Result, error) { return s.OSScaling(q, DefaultOptions()) },
			func() (Result, error) { return s.BucketBound(q, DefaultOptions()) },
			func() (Result, error) { return s.Exact(q, DefaultOptions()) },
			func() (Result, error) { return s.Greedy(q, DefaultOptions()) },
			func() (Result, error) { return s.Greedy(q, budgetFirst) },
			func() (Result, error) { return s.Greedy(q, greedy2) },
		} {
			res, err := run()
			if err == nil {
				found++
			}
			if len(res.Routes) > 0 {
				verifyRoute(t, g, q, res.Routes[0], fmt.Sprintf("trial %d", trial))
			}
		}
		s.SetSweepSharing(false) // every plan computes, so the metrics count it
		if res, _ := s.Greedy(q, budgetFirst); res.Metrics.PlanSweeps > 0 {
			greedyBounded++
		}
		if spy.minBudget != 0 || spy.budgetPaths != 0 {
			t.Fatalf("trial %d: lazy oracle served %d σ lookups and %d σ paths",
				trial, spy.minBudget, spy.budgetPaths)
		}
	}
	if found == 0 || greedyBounded == 0 {
		t.Fatalf("vacuous run: %d searches found routes, %d budget-priority Greedy runs used a bounded σ sweep",
			found, greedyBounded)
	}
}
