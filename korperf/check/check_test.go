package check

import (
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"kor/internal/graph"
	"kor/korapi"
)

// line is a four-node path 0→1→2→3 (and back) where node 1 carries "cafe"
// and node 2 carries "jazz". Edge objective 1, budget 2 each way.
func line(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	b.AddNode()
	b.AddNode("cafe")
	b.AddNode("jazz")
	b.AddNode()
	for v := graph.NodeID(0); v < 3; v++ {
		if err := b.AddBidirectional(v, v+1, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func body(t *testing.T, g *graph.Graph, algo string, bound float64, routes ...korapi.Route) []byte {
	t.Helper()
	b, err := json.Marshal(korapi.Response{
		Algorithm: algo,
		Bound:     bound,
		Routes:    routes,
		Snapshot:  &korapi.Snapshot{Fingerprint: Fingerprint(g), Generation: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func reason(err error) string {
	var f *Failure
	if errors.As(err, &f) {
		return f.Reason
	}
	return ""
}

func TestRouteRejectsBadAnswers(t *testing.T) {
	g := line(t)
	c := New(g)
	req := korapi.Request{From: 0, To: 3, Keywords: []string{"cafe", "jazz"}, Budget: 6, Algorithm: "bucketbound"}
	good := korapi.Route{Nodes: []int64{0, 1, 2, 3}, Objective: 3, Budget: 6, Feasible: true}

	if a, err := c.Route(req, http.StatusOK, body(t, g, "bucketbound", 1.2, good), nil); err != nil || a.Objective != 3 || !a.Feasible {
		t.Fatalf("good answer rejected: %+v, %v", a, err)
	}

	other := graph.NewBuilder()
	other.AddNode("cafe")
	stranger := other.MustBuild()

	tight := req
	tight.Budget = 5
	greedy := req
	greedy.Algorithm = "greedy"
	greedy.Budget = 5
	cases := []struct {
		name   string
		req    korapi.Request
		status int
		body   []byte
		err    error
		want   string
	}{
		{"transport error", req, 0, nil, errors.New("connection reset"), "transport"},
		{"server error", req, 500, []byte(`{"error":{"code":"internal","message":"boom"}}`), nil, "status_5xx"},
		{"overloaded", req, 429, []byte(`{"error":{"code":"overloaded","message":"busy"}}`), nil, "status_4xx"},
		{"not an envelope", req, 502, []byte(`<html>`), nil, "bad_body"},
		{"unknown snapshot", req, 200, body(t, stranger, "bucketbound", 1.2, good), nil, "unknown_snapshot"},
		{"no routes", req, 200, body(t, g, "bucketbound", 1.2), nil, "empty_routes"},
		{"wrong algorithm", req, 200, body(t, g, "osscaling", 2, good), nil, "wrong_algorithm"},
		{"wrong start", req, 200, body(t, g, "bucketbound", 1.2,
			korapi.Route{Nodes: []int64{1, 2, 3}, Objective: 2, Budget: 4, Feasible: true}), nil, "bad_endpoints"},
		{"missing edge", req, 200, body(t, g, "bucketbound", 1.2,
			korapi.Route{Nodes: []int64{0, 2, 3}, Objective: 2, Budget: 4, Feasible: true}), nil, "missing_edge"},
		{"objective off", req, 200, body(t, g, "bucketbound", 1.2,
			korapi.Route{Nodes: []int64{0, 1, 2, 3}, Objective: 2.5, Budget: 6, Feasible: true}), nil, "objective_mismatch"},
		{"budget off", req, 200, body(t, g, "bucketbound", 1.2,
			korapi.Route{Nodes: []int64{0, 1, 2, 3}, Objective: 3, Budget: 5, Feasible: true}), nil, "budget_mismatch"},
		{"over budget", tight, 200, body(t, g, "bucketbound", 1.2,
			korapi.Route{Nodes: []int64{0, 1, 2, 3}, Objective: 3, Budget: 6}), nil, "over_budget"},
		{"feasible flag wrong", greedy, 200, body(t, g, "greedy", 0,
			korapi.Route{Nodes: []int64{0, 1, 2, 3}, Objective: 3, Budget: 6, Feasible: true}), nil, "feasible_flag"},
		{"unknown keyword", req, 400, []byte(`{"error":{"code":"unknown_keyword","message":"?"}}`), nil, "status_4xx"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Route(tc.req, tc.status, tc.body, tc.err)
			if got := reason(err); got != tc.want {
				t.Fatalf("reason %q (%v), want %q", got, err, tc.want)
			}
		})
	}

	uncovered := korapi.Request{From: 0, To: 1, Keywords: []string{"jazz"}, Budget: 6, Algorithm: "bucketbound"}
	_, err := c.Route(uncovered, 200, body(t, g, "bucketbound", 1.2,
		korapi.Route{Nodes: []int64{0, 1}, Objective: 1, Budget: 2, Feasible: true}), nil)
	if got := reason(err); got != "keywords_uncovered" {
		t.Fatalf("uncovered keyword: reason %q (%v)", got, err)
	}
}

func TestRouteAcceptsAnswersThatAreNotFailures(t *testing.T) {
	g := line(t)
	c := New(g)
	req := korapi.Request{From: 0, To: 3, Keywords: []string{"cafe"}, Budget: 5, Algorithm: "greedy"}
	a, err := c.Route(req, http.StatusNotFound, []byte(`{"error":{"code":"no_route","message":"none"}}`), nil)
	if err != nil || !a.NoRoute {
		t.Fatalf("no_route: %+v, %v", a, err)
	}
	// A greedy route over budget is an answer when it says so.
	over := korapi.Route{Nodes: []int64{0, 1, 2, 3}, Objective: 3, Budget: 6}
	b, _ := json.Marshal(korapi.Response{
		Algorithm: "greedy",
		Routes:    []korapi.Route{over},
		Warning:   &korapi.Error{Code: korapi.CodeBudgetExceeded, Message: "over"},
		Snapshot:  &korapi.Snapshot{Fingerprint: Fingerprint(g)},
	})
	if a, err := c.Route(req, http.StatusOK, b, nil); err != nil || a.Feasible {
		t.Fatalf("greedy over budget: %+v, %v", a, err)
	}
	// The same warning from a label algorithm is a failure.
	req.Algorithm = "osscaling"
	b, _ = json.Marshal(korapi.Response{
		Algorithm: "osscaling",
		Routes:    []korapi.Route{over},
		Warning:   &korapi.Error{Code: korapi.CodeBudgetExceeded, Message: "over"},
		Snapshot:  &korapi.Snapshot{Fingerprint: Fingerprint(g)},
	})
	if _, err := c.Route(req, http.StatusOK, b, nil); reason(err) != "over_budget" {
		t.Fatalf("osscaling over budget: %v", err)
	}
}

func TestVerifyAgainstExact(t *testing.T) {
	bb := korapi.Request{Algorithm: "bucketbound"}
	gr := korapi.Request{Algorithm: "greedy"}
	cases := []struct {
		name  string
		req   korapi.Request
		a     Answer
		exact float64
		found bool
		want  string
	}{
		{"within bound", bb, Answer{Objective: 11, Feasible: true, Bound: 1.2}, 10, true, ""},
		{"bound exceeded", bb, Answer{Objective: 13, Feasible: true, Bound: 1.2}, 10, true, "bound_exceeded"},
		{"greedy has no bound", gr, Answer{Objective: 30, Feasible: true}, 10, true, ""},
		{"beats the optimum", bb, Answer{Objective: 9, Feasible: true, Bound: 1.2}, 10, true, "beats_optimum"},
		{"no_route confirmed", bb, Answer{NoRoute: true}, 0, false, ""},
		{"no_route unconfirmed", bb, Answer{NoRoute: true}, 10, true, "no_route_unconfirmed"},
		{"route where none exists", bb, Answer{Objective: 5, Feasible: true, Bound: 1.2}, 0, false, "route_without_optimum"},
		{"greedy infeasible", gr, Answer{Objective: 5}, 0, false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := reason(Verify(tc.req, tc.a, tc.exact, tc.found)); got != tc.want {
				t.Fatalf("reason %q, want %q", got, tc.want)
			}
		})
	}
}
