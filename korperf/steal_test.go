package main

import (
	"testing"
	"time"
)

// readings returns cumulative steal readings 100 ms apart.
func readings(ticks ...int64) []stealReading {
	rs := make([]stealReading, len(ticks))
	for i, t := range ticks {
		rs[i] = stealReading{at: time.Duration(i) * 100 * time.Millisecond, ticks: t}
	}
	return rs
}

func TestStealDuring(t *testing.T) {
	// Steal in the second interval (100–200 ms) and the fourth (300–400 ms).
	rs := readings(5, 5, 7, 7, 8)
	for _, c := range []struct {
		from, to time.Duration
		want     int64
	}{
		{0, 50 * time.Millisecond, 0},
		{50 * time.Millisecond, 150 * time.Millisecond, 2},
		{210 * time.Millisecond, 290 * time.Millisecond, 0},
		{150 * time.Millisecond, 350 * time.Millisecond, 3},
		{390 * time.Millisecond, 500 * time.Millisecond, 1},
		{500 * time.Millisecond, time.Second, 0}, // after the last reading
	} {
		if got := stealDuring(rs, c.from, c.to); got != c.want {
			t.Errorf("stealDuring(%v, %v) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
	if got := stealDuring(nil, 0, time.Second); got != 0 {
		t.Errorf("no readings: %d", got)
	}
}

func TestQuietSamples(t *testing.T) {
	ms := time.Millisecond
	rs := readings(0, 0, 3, 3)
	ivs := [][2]time.Duration{
		{10 * ms, 20 * ms},   // quiet
		{120 * ms, 130 * ms}, // in the stolen interval
		{210 * ms, 290 * ms}, // quiet
		{90 * ms, 98 * ms},   // quiet, but its slack reaches the stolen interval
	}
	got := quietSamples(rs, ivs)
	want := []bool{true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quiet = %v, want %v", got, want)
		}
	}

	// Every interval stolen: the half with the least steal, earlier first.
	rs = readings(0, 1, 3, 6, 7)
	ivs = [][2]time.Duration{
		{110 * ms, 120 * ms}, // 2 ticks
		{10 * ms, 20 * ms},   // 1 tick
		{210 * ms, 220 * ms}, // 3 ticks
		{310 * ms, 320 * ms}, // 1 tick
	}
	got = quietSamples(rs, ivs)
	want = []bool{false, true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("all stolen: quiet = %v, want %v", got, want)
		}
	}

	// Without readings nothing can be told apart: every read counts.
	for i, q := range quietSamples(nil, ivs) {
		if !q {
			t.Fatalf("no readings: interval %d not quiet", i)
		}
	}
}

func TestStealShare(t *testing.T) {
	// 10 ticks of 10 ms over 400 ms on 2 CPUs: 100 ms of 800 ms.
	if got := stealShare(readings(0, 5, 5, 5, 10), 2); got < 0.1249 || got > 0.1251 {
		t.Fatalf("stealShare = %v, want 0.125", got)
	}
	if got := stealShare(nil, 2); got != 0 {
		t.Fatalf("no readings: %v", got)
	}
}

func TestStealMeter(t *testing.T) {
	m := startSteal()
	time.Sleep(3 * stealStep)
	rs := m.finish()
	if rs == nil {
		t.Skip("no /proc/stat here")
	}
	if len(rs) < 3 {
		t.Fatalf("%d readings over %v, want at least 3", len(rs), 3*stealStep)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].at <= rs[i-1].at || rs[i].ticks < rs[i-1].ticks {
			t.Fatalf("readings go backwards: %+v then %+v", rs[i-1], rs[i])
		}
	}
}
