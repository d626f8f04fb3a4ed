// Command svcbench is the repository's benchmark: it runs one named
// workload against real stubbyd servers started in process (loopback
// sockets, plan store, job journal and shared estimate cache, as stubbyd
// runs with -store), checks every result, and prints the workload's
// metrics as one JSON line, last on standard output.
//
// Build and run it through run.sh from the root of the checkout:
//
//	bash svcbench/run.sh --workload cold-search --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a traced run instead. See README.md for the workloads and
// metrics. The exit code is 1 when any output check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: cold-search, warm-hits or cluster-mix")
		seed     = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Int("seconds", 20, "how long the timed phase issues work")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		dir      = flag.String("dir", ".bench_build", "existing directory for the run's stores and journals")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "svcbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	// A run takes well under a minute; the deadline turns a hang into
	// failed jobs and a prompt exit.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	rep, err := Run(ctx, Config{
		Workload: *workload,
		Seed:     *seed,
		Duration: time.Duration(*seconds) * time.Second,
		Trace:    *trace == 1,
		Dir:      *dir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	for _, line := range rep.Summary {
		fmt.Fprintln(os.Stderr, line)
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(os.Stderr, "check failed:", n)
	}
	fmt.Printf("digest %s %s keys=%s\n", *workload, rep.Digest, rep.DigestKeys)
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		os.Exit(1)
	}
}
