// Package load drives a server with a fixed list of requests, either closed
// loop (each connection sends its next request when the last one returns)
// or open loop (requests are due on a fixed schedule whether or not earlier
// ones have returned). It never uses more connections than CPUs.
package load

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Doer sends request i and returns its HTTP status and body.
type Doer func(ctx context.Context, i int) (status int, body []byte, err error)

// Sample is one request's timing and outcome. Times are offsets from the
// phase start.
type Sample struct {
	// Due is when the schedule said to send; zero in a closed loop.
	Due time.Duration
	// Claimed is when a connection took the request from the list: at once
	// if the connection was free before the request was due, else when it
	// became free.
	Claimed time.Duration
	// Sent is when a connection was free to send it.
	Sent time.Duration
	// Done is when the response was read.
	Done   time.Duration
	Status int
	Body   []byte
	Err    error
}

// Latency is the time from the scheduled send to the response when the
// request had to wait for a connection: a stall is charged to every request
// that was due while it lasted, not just to the one that hit it. A request
// whose connection was free before it fell due is timed from its send
// instead, so the generator's own timer overshoot (up to a millisecond for
// sub-millisecond waits) is not counted as the server's.
func (s Sample) Latency() time.Duration { return s.Done - s.Start() }

// Start is when the request's latency starts counting: its send when its
// connection was free before it fell due, else its due time.
func (s Sample) Start() time.Duration {
	if s.Claimed < s.Due {
		return s.Sent
	}
	return s.Due
}

// Lag is how far behind schedule the request was sent.
func (s Sample) Lag() time.Duration { return s.Sent - s.Due }

// RoundTrip is the time the request spent on the wire and in the server.
func (s Sample) RoundTrip() time.Duration { return s.Done - s.Sent }

// Conns clamps a requested connection count to [1, NumCPU].
func Conns(n int) int {
	return max(1, min(n, runtime.NumCPU()))
}

// Closed sends requests 0..n-1 over conns connections, each sending its
// next request as soon as its last one returns. It returns the samples and
// the wall time from the first send to the last response.
func Closed(ctx context.Context, n, conns int, do Doer) ([]Sample, time.Duration) {
	return run(ctx, n, conns, nil, do)
}

// Open sends request i when it falls due at i/rate seconds after the start,
// over conns connections. A request due while every connection is busy
// waits for the next free one; its latency still counts from its due time.
func Open(ctx context.Context, n, conns int, rate float64, do Doer) ([]Sample, time.Duration) {
	interval := time.Duration(float64(time.Second) / rate)
	return run(ctx, n, conns, func(i int) time.Duration { return time.Duration(i) * interval }, do)
}

func run(ctx context.Context, n, conns int, due func(int) time.Duration, do Doer) ([]Sample, time.Duration) {
	samples := make([]Sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range Conns(conns) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				s := &samples[i]
				s.Claimed = time.Since(start)
				if due != nil {
					s.Due = due(i)
					if wait := s.Due - time.Since(start); wait > 0 {
						t := time.NewTimer(wait)
						select {
						case <-ctx.Done():
							t.Stop()
							return
						case <-t.C:
						}
					}
				}
				s.Sent = time.Since(start)
				if due == nil {
					s.Due = s.Sent
				}
				s.Status, s.Body, s.Err = do(ctx, i)
				s.Done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}
