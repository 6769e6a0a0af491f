package main

import (
	"bytes"
	"cmp"
	"errors"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stealStep is how often the open loop reads the machine's steal time.
const stealStep = 25 * time.Millisecond

// stealSlack extends each request's interval when looking for steal: the
// kernel charges steal to a CPU at its next tick, a few milliseconds late.
const stealSlack = 5 * time.Millisecond

// minQuietReads is the least number of requests latency is taken over —
// enough for ten beyond p99 — or half of them when fewer than twice as many
// were sent: when fewer saw no steal, the ones that saw the least are used.
const minQuietReads = 1000

// stealReading is the machine's cumulative steal time, in clock ticks
// summed over CPUs, at an offset from the meter's start.
type stealReading struct {
	at    time.Duration
	ticks int64
}

// stealMeter records the machine's steal time — time a CPU of this guest
// had work but the hypervisor ran another guest — every stealStep.
type stealMeter struct {
	stop     chan struct{}
	done     chan struct{}
	readings []stealReading
	err      error
}

// startSteal starts a meter whose offsets count from now.
func startSteal() *stealMeter {
	m := &stealMeter{stop: make(chan struct{}), done: make(chan struct{})}
	start := time.Now()
	read := func() error {
		t, err := readSteal()
		if err == nil {
			m.readings = append(m.readings, stealReading{time.Since(start), t})
		}
		return err
	}
	if m.err = read(); m.err != nil {
		close(m.done)
		return m
	}
	tick := time.NewTicker(stealStep)
	go func() {
		defer close(m.done)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				read()
				return
			case <-tick.C:
				if m.err = read(); m.err != nil {
					return
				}
			}
		}
	}()
	return m
}

// finish stops the meter and returns its readings, or nil when /proc/stat
// could not be read.
func (m *stealMeter) finish() []stealReading {
	select {
	case <-m.done: // never started, or stopped on a read error
	default:
		close(m.stop)
	}
	<-m.done
	if m.err != nil {
		return nil
	}
	return m.readings
}

// readSteal returns the steal ticks summed over all CPUs from the first
// line of /proc/stat: "cpu user nice system idle iowait irq softirq steal …".
func readSteal() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("unexpected /proc/stat cpu line")
	}
	return strconv.ParseInt(f[8], 10, 64)
}

// stealShare is the share of cpus CPUs' time the readings saw stolen.
func stealShare(rs []stealReading, cpus int) float64 {
	if len(rs) < 2 || rs[len(rs)-1].at <= rs[0].at {
		return 0
	}
	first, last := rs[0], rs[len(rs)-1]
	stolen := time.Duration(last.ticks-first.ticks) * clockTick
	return float64(stolen) / float64(last.at-first.at) / float64(cpus)
}

// stealDuring returns the steal ticks recorded in the reading intervals
// that overlap [from, to]. Time outside the readings counts as no steal.
func stealDuring(rs []stealReading, from, to time.Duration) int64 {
	if len(rs) < 2 {
		return 0
	}
	// First interval ending after from, last one starting before to.
	i := sort.Search(len(rs), func(k int) bool { return rs[k].at > from })
	j := sort.Search(len(rs), func(k int) bool { return rs[k].at >= to })
	i = max(i, 1)
	j = min(j, len(rs)-1)
	if i > j {
		return 0
	}
	return rs[j].ticks - rs[i-1].ticks
}

// quietSamples returns which of the intervals saw no steal, extended by
// stealSlack at the end. When fewer than minQuietReads of them (or half,
// if that is less) did, it marks that many with the least steal instead,
// earlier first on ties. Without readings every interval is quiet.
func quietSamples(rs []stealReading, intervals [][2]time.Duration) []bool {
	quiet := make([]bool, len(intervals))
	steal := make([]int64, len(intervals))
	kept := 0
	for i, iv := range intervals {
		steal[i] = stealDuring(rs, iv[0], iv[1]+stealSlack)
		if steal[i] == 0 {
			quiet[i] = true
			kept++
		}
	}
	want := min(minQuietReads, (len(intervals)+1)/2)
	if kept >= want {
		return quiet
	}
	order := make([]int, len(intervals))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(steal[a], steal[b]) })
	for _, i := range order[:want] {
		quiet[i] = true
	}
	return quiet
}
