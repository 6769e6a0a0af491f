// Command korperf is the repository's benchmark. It boots korserve, built
// from the same checkout, as a subprocess on a prepared graph, drives
// /v1/route traffic at it from one process over at most nproc connections,
// checks every answer, and prints the end-to-end metrics. With --trace 1 it
// also replays the requests in process through korapi, kor, internal/core,
// internal/apsp and internal/graph and prints the per-layer metrics instead.
//
// Usage, from the repository root:
//
//	bash korperf/run.sh --workload lazy-unique --seed 1 --seconds 40 --trace 0
//	.bench_build/korperf -compare a.json b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory
// describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	// One OS thread per CPU at most: the generator shares the machine with
	// korserve and must not take more than its share.
	runtime.GOMAXPROCS(runtime.NumCPU())
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name (lazy-unique, road-zipf, city-zipf, indexed-zipf, city-churn)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request stream")
	flag.IntVar(&o.seconds, "seconds", 40, "how long the measured phases run at the rates the workload fixes")
	trace := flag.Int("trace", 0, "1 adds the in-process traced run and prints the per-layer metrics")
	flag.StringVar(&o.korserve, "korserve", ".bench_build/korserve", "korserve binary built from the checkout under test")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for prepared graphs, logs, run records and spans")
	compare := flag.Bool("compare", false, "compare the two run records named as arguments instead of running")
	flag.Parse()
	o.trace = *trace == 1

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "korperf: -compare takes two run records")
			os.Exit(2)
		}
		if err := compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "korperf:", err)
			os.Exit(2)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "korperf: --trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "korperf: --seconds must be at least 1")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rec, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "korperf:", err)
		stop()
		os.Exit(1)
	}
	if err := rec.save(filepath.Join(o.work, "runs")); err != nil {
		fmt.Fprintln(os.Stderr, "korperf: saving run record:", err)
	}
	rec.printSummary(os.Stdout)
	line, err := json.Marshal(rec.result(o.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "korperf:", err)
		stop()
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	korserve string
	work     string
}
