package main

// inputs.go builds what the benchmark submits: the paper's workflows,
// generated and profiled, and the (workflow, search seed) keys each
// workload derives from the run's seed. The program under test sees only
// these generated inputs.

import (
	"fmt"
	"hash/fnv"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/workloads"
)

const (
	// profileFraction is the sampling rate of the profiling run, as in the
	// repository's evaluation harness.
	profileFraction = 0.5
	// dataSeed generates the workflows' data. It is fixed, so every run
	// optimizes the same eight annotated plans and runs differ only in the
	// keys their seed picks: which search seeds are sent, in which order.
	dataSeed = 1
)

// input is one profiled workflow ready to submit.
type input struct {
	abbr     string
	workflow *stubby.Workflow
	cluster  *stubby.Cluster
	// reg binds the workflow's stage functions, for the check that a
	// returned plan is executable by the submitter.
	reg *planio.Registry
	// cost is the What-if estimate of the unoptimized workflow.
	cost float64
}

// buildInputs generates and profiles the named workflows. The generated
// data is dropped once profiled: only the annotated plans are submitted.
func buildInputs(abbrs []string, size float64) ([]*input, error) {
	out := make([]*input, len(abbrs))
	for i, abbr := range abbrs {
		wl, err := workloads.Build(abbr, workloads.Options{SizeFactor: size, Seed: dataSeed})
		if err != nil {
			return nil, err
		}
		if err := profile.NewProfiler(wl.Cluster, profileFraction, dataSeed+17).Annotate(wl.Workflow, wl.DFS); err != nil {
			return nil, fmt.Errorf("profile %s: %w", abbr, err)
		}
		est, err := stubby.EstimateCost(wl.Cluster, wl.Workflow)
		if err != nil {
			return nil, fmt.Errorf("estimate %s: %w", abbr, err)
		}
		reg := planio.NewRegistry()
		reg.RegisterWorkflow(wl.Workflow)
		out[i] = &input{abbr: abbr, workflow: wl.Workflow, cluster: wl.Cluster, reg: reg, cost: est.Makespan}
	}
	return out, nil
}

// key identifies one distinct optimization: an input and a search seed.
// Equal keys must come back with byte-identical plans.
type key struct {
	in   int
	seed int64
}

// deriveSeed gives the n-th search seed of a named stream, from the run's
// seed. Seeds are positive, so none falls back to the server's default.
func deriveSeed(seed int64, stream string, n int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, n)
	return int64(h.Sum64()>>2) + 1
}

// request is the submission for a key.
func (k key) request(ins []*input) stubby.OptimizeRequest {
	in := ins[k.in]
	return stubby.OptimizeRequest{Workflow: in.workflow, Cluster: in.cluster, Seed: k.seed}
}
