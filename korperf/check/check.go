// Package check decides whether korserve's answers are correct. Every answer
// is checked against the graph version its snapshot fingerprint names; the
// fixed verification sample is also checked against the exact optimum.
package check

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"kor/internal/graph"
	"kor/korapi"
)

// Failure is a rejected answer. Reason is one of a closed set of names, so
// failures can be counted by kind.
type Failure struct {
	Reason string
	Detail string
}

func (f *Failure) Error() string { return f.Reason + ": " + f.Detail }

func fail(reason, format string, args ...any) *Failure {
	return &Failure{Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

// Answer is an accepted answer to one read.
type Answer struct {
	// NoRoute reports a 404 no_route; the other fields are then zero.
	NoRoute bool
	// Objective, Budget and Feasible describe the best route.
	Objective float64
	Budget    float64
	Feasible  bool
	// Bound is the approximation factor the server reported.
	Bound float64
	// Snapshot is the fingerprint of the graph that answered.
	Snapshot string
	// ElapsedMS is the server's own search time.
	ElapsedMS float64
}

// Checker holds every graph version the server may answer from.
type Checker struct {
	versions map[string]*graph.Graph
}

// New returns a checker that accepts answers from any of gs.
func New(gs ...*graph.Graph) *Checker {
	c := &Checker{versions: make(map[string]*graph.Graph)}
	for _, g := range gs {
		c.versions[Fingerprint(g)] = g
	}
	return c
}

// Fingerprint spells g's fingerprint as korapi does.
func Fingerprint(g *graph.Graph) string { return fmt.Sprintf("%016x", g.Fingerprint()) }

// Graph returns the version with the given fingerprint, or nil.
func (c *Checker) Graph(fingerprint string) *graph.Graph { return c.versions[fingerprint] }

// tolerance is the relative error allowed between a reported score and the
// edge sum: the server and the checker may add the same edges in a
// different order.
const tolerance = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= tolerance*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// Route checks one GET /v1/route exchange. A 404 no_route and a greedy
// answer over budget are answers; transport errors, other error statuses and
// any route that does not hold up against the graph are failures.
func (c *Checker) Route(req korapi.Request, status int, body []byte, transportErr error) (Answer, error) {
	if transportErr != nil {
		return Answer{}, fail("transport", "%v", transportErr)
	}
	if status != http.StatusOK {
		var env korapi.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
			return Answer{}, fail("bad_body", "status %d with a body that is no error envelope", status)
		}
		if status == http.StatusNotFound && env.Error.Code == korapi.CodeNoRoute {
			return Answer{NoRoute: true}, nil
		}
		if status >= 500 {
			return Answer{}, fail("status_5xx", "%d %s", status, env.Error.Code)
		}
		return Answer{}, fail("status_4xx", "%d %s", status, env.Error.Code)
	}
	var resp korapi.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return Answer{}, fail("bad_body", "%v", err)
	}
	if resp.Snapshot == nil {
		return Answer{}, fail("unknown_snapshot", "response names no snapshot")
	}
	g := c.versions[resp.Snapshot.Fingerprint]
	if g == nil {
		return Answer{}, fail("unknown_snapshot", "no graph version has fingerprint %s", resp.Snapshot.Fingerprint)
	}
	if len(resp.Routes) == 0 {
		return Answer{}, fail("empty_routes", "200 without a route")
	}
	if resp.Algorithm != req.Algorithm {
		return Answer{}, fail("wrong_algorithm", "asked %s, answered %s", req.Algorithm, resp.Algorithm)
	}
	greedy := req.Algorithm == "greedy"
	overBudget := resp.Warning != nil && resp.Warning.Code == korapi.CodeBudgetExceeded
	if overBudget && !greedy {
		return Answer{}, fail("over_budget", "%s answered budget_exceeded", req.Algorithm)
	}
	for i, r := range resp.Routes {
		if err := checkRoute(g, req, r, greedy); err != nil {
			err.Detail = fmt.Sprintf("route %d: %s", i, err.Detail)
			return Answer{}, err
		}
	}
	best := resp.Routes[0]
	return Answer{
		Objective: best.Objective,
		Budget:    best.Budget,
		Feasible:  best.Feasible,
		Bound:     resp.Bound,
		Snapshot:  resp.Snapshot.Fingerprint,
		ElapsedMS: resp.ElapsedMS,
	}, nil
}

// checkRoute validates one route against g: endpoints, edges, keyword
// coverage, reported scores equal to the edge sums, and the budget limit for
// every algorithm but greedy.
func checkRoute(g *graph.Graph, req korapi.Request, r korapi.Route, greedy bool) *Failure {
	n := len(r.Nodes)
	if n == 0 || r.Nodes[0] != req.From || r.Nodes[n-1] != req.To {
		return fail("bad_endpoints", "route %v does not run from %d to %d", r.Nodes, req.From, req.To)
	}
	for _, v := range r.Nodes {
		if !g.Valid(graph.NodeID(v)) {
			return fail("missing_edge", "node %d is not in the graph", v)
		}
	}
	// Parallel edges are legal, so a hop may have several (objective,
	// budget) choices; track every reachable pair of sums.
	sums := []pair{{}}
	for i := 1; i < n; i++ {
		u, v := graph.NodeID(r.Nodes[i-1]), graph.NodeID(r.Nodes[i])
		var next []pair
		for _, e := range g.Out(u) {
			if e.To != v {
				continue
			}
			for _, s := range sums {
				next = appendPair(next, pair{s.o + e.Objective, s.b + e.Budget})
			}
		}
		if len(next) == 0 {
			return fail("missing_edge", "no edge %d→%d", u, v)
		}
		sums = next
	}
	matched := false
	objOK := false
	for _, s := range sums {
		objOK = objOK || near(s.o, r.Objective)
		matched = matched || (near(s.o, r.Objective) && near(s.b, r.Budget))
	}
	if !objOK {
		return fail("objective_mismatch", "reported objective %g, edges sum to %g", r.Objective, sums[0].o)
	}
	if !matched {
		return fail("budget_mismatch", "reported budget %g, edges sum to %g", r.Budget, sums[0].b)
	}
	covered := make(map[string]bool)
	for _, v := range r.Nodes {
		for _, t := range g.Terms(graph.NodeID(v)) {
			covered[g.Vocab().Name(t)] = true
		}
	}
	for _, kw := range req.Keywords {
		if !covered[kw] {
			return fail("keywords_uncovered", "route misses keyword %q", kw)
		}
	}
	within := r.Budget <= req.Budget*(1+tolerance)
	if !greedy && !within {
		return fail("over_budget", "budget %g exceeds Δ=%g", r.Budget, req.Budget)
	}
	if r.Feasible != within {
		return fail("feasible_flag", "feasible=%v for budget %g against Δ=%g", r.Feasible, r.Budget, req.Budget)
	}
	return nil
}

type pair struct{ o, b float64 }

// maxPairs caps the tracked sums; a route through that many parallel-edge
// combinations keeps the first ones, which can only produce a false
// mismatch, never a false acceptance.
const maxPairs = 256

func appendPair(ps []pair, p pair) []pair {
	for _, q := range ps {
		if q == p {
			return ps
		}
	}
	if len(ps) == maxPairs {
		return ps
	}
	return append(ps, p)
}

// Verify compares an accepted answer with the exact optimum on the same
// graph version: exactFound reports whether a feasible route exists and
// exact is its objective. A no_route must be confirmed by the exact search,
// a route must not appear where the exact search proved none, and a route
// from an algorithm with a guarantee must stay within its bound.
func Verify(req korapi.Request, a Answer, exact float64, exactFound bool) error {
	switch {
	case a.NoRoute && exactFound:
		return fail("no_route_unconfirmed", "no_route, but the exact optimum is %g", exact)
	case a.NoRoute:
		return nil
	case !exactFound && a.Feasible:
		return fail("route_without_optimum", "feasible route of objective %g where the exact search finds none", a.Objective)
	}
	if a.Feasible && a.Objective < exact*(1-tolerance) {
		return fail("beats_optimum", "objective %g below the exact optimum %g", a.Objective, exact)
	}
	if req.Algorithm != "greedy" && a.Bound > 0 && a.Objective > a.Bound*exact*(1+tolerance) {
		return fail("bound_exceeded", "objective %g exceeds %g × optimum %g", a.Objective, a.Bound, exact)
	}
	return nil
}
