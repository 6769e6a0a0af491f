package load

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func client(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

func getter(c *http.Client, url string) Doer {
	return func(ctx context.Context, i int) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return 0, nil, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
}

// TestOpenChargesStallToQueuedRequests stalls the fifth request for 300ms
// on a single connection. The requests due during the stall cannot be sent
// until it ends; their latency must count from when they were due, so each
// carries most of the stall although its own round trip is short.
func TestOpenChargesStallToQueuedRequests(t *testing.T) {
	const stall, interval = 300 * time.Millisecond, 10 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := client(1)
	defer c.CloseIdleConnections()

	samples, _ := Open(context.Background(), 40, 1, float64(time.Second/interval), getter(c, srv.URL))
	for i, s := range samples {
		if s.Err != nil || s.Status != http.StatusOK {
			t.Fatalf("request %d: %d %v", i, s.Status, s.Err)
		}
	}
	if got := samples[4].RoundTrip(); got < stall {
		t.Fatalf("stalled request round trip %v, want at least %v", got, stall)
	}
	// Request 5 was due one interval after the stalled one started and
	// waited for it: about stall-interval of lag, charged to its latency.
	next := samples[5]
	if next.Lag() < stall-2*interval || next.Latency() < stall-2*interval {
		t.Fatalf("request behind the stall: lag %v, latency %v; want both ≥ %v", next.Lag(), next.Latency(), stall-2*interval)
	}
	if next.RoundTrip() > stall/3 {
		t.Fatalf("request behind the stall has round trip %v; the wait must come from the schedule, not the server", next.RoundTrip())
	}
	// The backlog drains: the last request is on time again.
	if last := samples[len(samples)-1]; last.Lag() > stall/3 {
		t.Fatalf("last request still %v behind schedule", last.Lag())
	}
}

// TestConnsNeverExceedCPUs asks for more connections than CPUs and counts
// the connections the server sees.
func TestConnsNeverExceedCPUs(t *testing.T) {
	if got, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); got > cpus {
		t.Fatalf("GOMAXPROCS %d exceeds %d CPUs", got, cpus)
	}
	var mu sync.Mutex
	seen := map[net.Conn]bool{}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
	}))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			mu.Lock()
			seen[c] = true
			mu.Unlock()
		}
	}
	srv.Start()
	defer srv.Close()
	want := Conns(4 * runtime.NumCPU())
	if want > runtime.NumCPU() {
		t.Fatalf("Conns allowed %d connections on %d CPUs", want, runtime.NumCPU())
	}
	c := client(want)
	defer c.CloseIdleConnections()
	Closed(context.Background(), 200, 4*runtime.NumCPU(), getter(c, srv.URL))
	Open(context.Background(), 100, 4*runtime.NumCPU(), 2000, getter(c, srv.URL))
	mu.Lock()
	defer mu.Unlock()
	if len(seen) > runtime.NumCPU() {
		t.Fatalf("server saw %d connections, more than %d CPUs", len(seen), runtime.NumCPU())
	}
}

// TestLatencyStart pins where latency starts counting: at the due time for
// a request that waited for a connection, at the send for one whose
// connection was free early and whose timer woke late.
func TestLatencyStart(t *testing.T) {
	ms := time.Millisecond
	queued := Sample{Due: 10 * ms, Claimed: 14 * ms, Sent: 14 * ms, Done: 15 * ms}
	if got := queued.Latency(); got != 5*ms {
		t.Errorf("queued request: latency %v, want 5ms from its due time", got)
	}
	early := Sample{Due: 10 * ms, Claimed: 9 * ms, Sent: 11 * ms, Done: 12 * ms}
	if got := early.Latency(); got != ms {
		t.Errorf("request on a free connection: latency %v, want its 1ms round trip", got)
	}
	if got := early.Lag(); got != ms {
		t.Errorf("timer overshoot: lag %v, want 1ms", got)
	}
}
