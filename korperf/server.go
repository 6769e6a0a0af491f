package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one korserve subprocess.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// pollEvery is the set-up poll step: well under a tenth of the fastest
// boot the benchmark sees (tens of milliseconds).
const pollEvery = time.Millisecond

// startServer execs korserve with args plus a free loopback address and
// waits for the first 200 from /v1/stats. It returns the server and the
// time from exec to that answer.
func startServer(ctx context.Context, bin string, args []string, logw io.Writer) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logw, logw
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting korserve: %w", err)
	}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/stats", nil)
		if err != nil {
			s.stop()
			return nil, 0, err
		}
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("korserve exited during set-up: %v", s.err)
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(pollEvery):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("korserve did not answer /v1/stats within 2m")
		}
	}
}

// freeAddr reserves a loopback port long enough to learn its number.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// stop sends SIGTERM, gives korserve its drain period, then kills it, and
// returns once the process has exited.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// clockTick is the Linux USER_HZ that /proc/<pid>/stat counts in.
const clockTick = 10 * time.Millisecond

// cpu returns korserve's user plus system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS returns korserve's VmHWM in MiB.
func (s *server) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the Prometheus exposition from /metrics into series→value.
func (s *server) scrape(ctx context.Context, c *http.Client) (map[string]float64, error) {
	_, body, err := get(ctx, c, s.base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// get fetches url and returns the status and body.
func get(ctx context.Context, c *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return do(c, req)
}

func do(c *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
