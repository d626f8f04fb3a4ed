package main

// bench.go runs one workload: set-up, the timed closed-loop phase, and the
// output checks that follow it.

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stubby-mr/stubby"
)

// Config is one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	// Duration is about how long the timed phase runs: warm-hits sends
	// until it ends, cluster-mix starts cycles until it ends, and
	// cold-search sends as many whole rounds as fit it.
	Duration time.Duration
	// Trace selects the traced run: an untraced and a traced phase of half
	// the duration each, reporting per-layer metrics and tracing overhead.
	Trace bool
	// Dir holds each run's stores and journals; it must exist.
	Dir string

	// Workflows are the paper workflows submitted (all eight); tests send
	// fewer to keep runs short.
	Workflows []string

	// tamper rewrites result bodies before the client reads them (tests).
	tamper func([]byte) []byte
}

const (
	// sizeFactor scales the workflows' generated data.
	sizeFactor = 0.25
	// prefillEvals is the search budget that fills warm-hits' store.
	prefillEvals = 20
	// setupReps is how many set-ups a run makes; setup_s is their median.
	setupReps = 5
)

// workload is one named traffic mix.
type workload struct {
	name      string
	clustered bool
	// prefill fills the store in set-up with every warm key.
	prefill bool
	// tail is the percentile latency_tail_ms reports: fixed per workload,
	// so two commits are compared at the same percentile, and chosen from
	// the tuning runs' job counts to leave at least ten samples beyond it.
	tail float64
	// run drives the closed-loop clients for about d.
	run func(e *env, ctx context.Context, d time.Duration) error
}

var workloadList = []workload{
	// 5 rounds of 8 jobs: 10 beyond p75.
	{name: "cold-search", tail: 0.75, run: runColdSearch},
	// About 280 jobs in 25 s: 14 beyond p95.
	{name: "warm-hits", prefill: true, tail: 0.95, run: runWarmHits},
	// About 150 jobs in 25 s: 15 beyond p90.
	{name: "cluster-mix", clustered: true, tail: 0.9, run: runClusterMix},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloadList))
	for i, w := range workloadList {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// clusterFresh are the workflows whose new keys cluster-mix sends: the
// five whose default-budget search takes well under a second, so a cycle
// is dominated by the cluster path rather than by one long search.
var clusterFresh = []string{"IR", "SN", "LA", "WG", "PJ"}

// hitsPerClient is how many store hits each cluster-mix client sends per
// cycle after the cycle's new key.
const hitsPerClient = 4

// jobTimeout bounds one job, so a hung job fails instead of hanging the run.
const jobTimeout = 60 * time.Second

// env is a workload's set-up: its inputs and running topology.
type env struct {
	cfg  Config
	wl   workload
	ins  []*input
	topo *topology
	dir  string
	hash maphash.Seed

	mu   sync.Mutex
	jobs []jobRecord
	// bodies holds, per key, the file each distinct result body seen was
	// spooled to, by hash. Bodies are megabytes each and kept until the
	// checks; on disk they do not add to the heap the run measures.
	bodies map[key]map[uint64]string
	// sent is every key submitted.
	sent map[key]bool
}

// jobRecord is one submission's outcome.
type jobRecord struct {
	key       key
	latency   time.Duration
	wait      time.Duration // submit acknowledged → terminal event
	queueWait time.Duration // Queued → Running event, as received
	overloads int
	// The result's counters, not the result: a decoded plan is megabytes,
	// and records live until the phase ends.
	cost           float64
	optimizer      time.Duration // the optimizer's own running time
	whatIfCalls    uint64
	whatIfComputed uint64
	flowCards      uint64
	body           uint64 // hash of the result body
	err            error
}

// setup builds the inputs and starts the workload's topology under a fresh
// directory.
func setup(ctx context.Context, cfg Config, wl workload, traced bool) (*env, error) {
	ins, err := buildInputs(cfg.Workflows, sizeFactor)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.Dir, "run-")
	if err != nil {
		return nil, err
	}
	topo, err := startTopology(dir, wl.clustered, traced, cfg.tamper)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &env{cfg: cfg, wl: wl, ins: ins, topo: topo, dir: dir, hash: maphash.MakeSeed(),
		bodies: make(map[key]map[uint64]string), sent: make(map[key]bool)}
	if err := os.Mkdir(e.bodyDir(), 0o755); err != nil {
		e.close()
		return nil, err
	}
	if wl.prefill {
		if err := e.prefill(ctx); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// coldKey is cold-search's n-th key: a search seed never sent before.
func (e *env) coldKey(n int) key {
	return key{in: n % len(e.ins), seed: deriveSeed(e.cfg.Seed, "cold", n)}
}

// warmKey is warm-hits' key for input i.
func (e *env) warmKey(i int) key {
	return key{in: i, seed: deriveSeed(e.cfg.Seed, "warm", i)}
}

// freshInputs are the inputs whose new keys cluster-mix sends: those named
// in clusterFresh.
func (e *env) freshInputs() []int {
	var fresh []int
	for i, in := range e.ins {
		if slices.Contains(clusterFresh, in.abbr) {
			fresh = append(fresh, i)
		}
	}
	return fresh
}

// clusterKey is the new key of cluster-mix's cycle c.
func (e *env) clusterKey(c int) key {
	fresh := e.freshInputs()
	return key{in: fresh[c%len(fresh)], seed: deriveSeed(e.cfg.Seed, "cluster", c)}
}

// prefill fills the node's store with every warm key through an
// in-process session sharing the store. It searches with a reduced budget:
// a hit's cost depends on the stored document, whose size comes from the
// workflow's profiles, not from how long the search ran.
func (e *env) prefill(ctx context.Context) error {
	sess, err := stubby.NewSession(
		stubby.WithSeed(1),
		stubby.WithParallelism(nodeWorkers),
		stubby.WithPlanStore(e.topo.entry.store),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: prefillEvals}),
	)
	if err != nil {
		return err
	}
	defer sess.Close(context.Background())
	handles := make([]*stubby.OptimizeHandle, len(e.ins))
	for i := range e.ins {
		if handles[i], err = sess.Submit(ctx, e.warmKey(i).request(e.ins)); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	for _, h := range handles {
		if _, err := h.Wait(ctx); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// close stops the topology and removes the run's directory.
func (e *env) close() error {
	err := e.topo.close()
	return errors.Join(err, os.RemoveAll(e.dir))
}

// client is one closed-loop submitter.
type client struct {
	e *env
	c *stubby.Client
}

func (e *env) newClient() (*client, error) {
	c, err := stubby.NewClient(e.topo.entry.url,
		stubby.WithHTTPClient(&http.Client{Transport: e.topo.client}))
	if err != nil {
		return nil, err
	}
	return &client{e: e, c: c}, nil
}

// do submits one key, follows its event stream to the terminal state,
// fetches the result, and records the outcome.
func (cl *client) do(ctx context.Context, k key) {
	e := cl.e
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	rec := jobRecord{key: k}
	start := time.Now()
	id, err := cl.submitAndWait(ctx, k, &rec)
	rec.latency = time.Since(start)
	rec.err = err
	if err == nil {
		body := e.topo.client.takeResult(id)
		rec.body = maphash.Bytes(e.hash, body)
		rec.err = e.keepBody(k, rec.body, body)
	}
	e.mu.Lock()
	e.jobs = append(e.jobs, rec)
	e.sent[k] = true
	e.mu.Unlock()
}

// submitAndWait is what Client.Wait does, with the state events timed:
// submit (retrying overload refusals), follow the event stream to the
// terminal state, then fetch the result.
func (cl *client) submitAndWait(ctx context.Context, k key, rec *jobRecord) (string, error) {
	var job *stubby.RemoteJob
	for {
		var err error
		job, err = cl.c.Submit(ctx, k.request(cl.e.ins))
		if err == nil {
			break
		}
		if !errors.Is(err, stubby.ErrKindOverloaded) || ctx.Err() != nil {
			return "", err
		}
		rec.overloads++
		time.Sleep(2 * time.Millisecond)
	}
	acked := time.Now()
	events, err := job.Events(ctx)
	if err != nil {
		return "", err
	}
	var queued, running time.Time
	var terminal *stubby.StateChangedEvent
	for ev := range events {
		sc, ok := ev.(stubby.StateChangedEvent)
		if !ok {
			continue
		}
		switch {
		case sc.State == stubby.StateQueued:
			queued = time.Now()
		case sc.State == stubby.StateRunning:
			running = time.Now()
		case sc.State.Terminal():
			terminal = &sc
		}
	}
	rec.wait = time.Since(acked)
	if !queued.IsZero() && !running.IsZero() {
		rec.queueWait = running.Sub(queued)
	}
	if terminal == nil {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("job %s: event stream ended before the job finished", job.ID())
	}
	if terminal.State != stubby.StateDone {
		if terminal.Err != nil {
			return "", terminal.Err
		}
		return "", fmt.Errorf("job %s ended %s", job.ID(), terminal.State)
	}
	res, err := job.Result(ctx)
	if err != nil {
		return "", err
	}
	rec.cost, rec.optimizer = res.EstimatedCost, res.Duration
	rec.whatIfCalls, rec.whatIfComputed, rec.flowCards = res.WhatIfCalls, res.WhatIfComputed, res.FlowCards
	return job.ID(), nil
}

// keepBody spools the first result body of each distinct (key, body hash)
// to a file for the output checks.
func (e *env) keepBody(k key, h uint64, body []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	seen := e.bodies[k]
	if seen == nil {
		seen = make(map[uint64]string)
		e.bodies[k] = seen
	}
	if _, ok := seen[h]; ok {
		return nil
	}
	path := filepath.Join(e.bodyDir(), fmt.Sprintf("%d-%d-%x", k.in, k.seed, h))
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return fmt.Errorf("spool result body: %w", err)
	}
	seen[h] = path
	return nil
}

func (e *env) bodyDir() string { return filepath.Join(e.dir, "bodies") }

const (
	// coldRoundSeconds is about how long one cold-search round of the
	// eight workflows takes on a 2-core machine.
	coldRoundSeconds = 7
	// minColdRounds is the fewest rounds cold-search sends: 40 jobs leave
	// ten beyond its p75 tail.
	minColdRounds = 5
)

// runColdSearch: one client; job n sends input n mod len(inputs) with a
// search seed never sent before. It sends whole rounds of all inputs, as
// many as fit d at coldRoundSeconds each but at least minColdRounds, so
// every run does the same work and weighs the workflows equally.
func runColdSearch(e *env, ctx context.Context, d time.Duration) error {
	cl, err := e.newClient()
	if err != nil {
		return err
	}
	rounds := max(minColdRounds, int(math.Ceil(d.Seconds()/coldRoundSeconds)))
	for n := 0; n < rounds*len(e.ins) && ctx.Err() == nil; n++ {
		cl.do(ctx, e.coldKey(n))
	}
	return nil
}

// runWarmHits: two clients re-submit the warm keys round-robin from one
// shared counter; every submission is a store hit.
func runWarmHits(e *env, ctx context.Context, d time.Duration) error {
	deadline := time.Now().Add(d)
	var next atomic.Int64
	return e.clients(2, func(_ int, cl *client) {
		for ctx.Err() == nil && time.Now().Before(deadline) {
			n := int(next.Add(1) - 1)
			cl.do(ctx, e.warmKey(n%len(e.ins)))
		}
	})
}

// runClusterMix: two clients through the coordinator, in cycles. Each
// cycle starts with both clients sending the same new key at once — one
// worker computes it while the other waits on its cross-replica claim —
// and continues with hitsPerClient hits per client over the keys sent so
// far. Cycles start until the deadline.
func runClusterMix(e *env, ctx context.Context, d time.Duration) error {
	deadline := time.Now().Add(d)
	const clients = 2
	b := newBarrier(clients, func() bool { return ctx.Err() == nil && time.Now().Before(deadline) })
	return e.clients(clients, func(j int, cl *client) {
		var sent []key
		for c := 0; b.await(); c++ {
			k := e.clusterKey(c)
			sent = append(sent, k)
			cl.do(ctx, k)
			for h := 0; h < hitsPerClient; h++ {
				cl.do(ctx, sent[(c*hitsPerClient*clients+h*clients+j)%len(sent)])
			}
		}
	})
}

// clients runs n closed-loop clients and waits for all of them.
func (e *env) clients(n int, loop func(j int, cl *client)) error {
	cls := make([]*client, n)
	for j := range cls {
		var err error
		if cls[j], err = e.newClient(); err != nil {
			return err
		}
	}
	var wg sync.WaitGroup
	for j, cl := range cls {
		wg.Add(1)
		go func(j int, cl *client) {
			defer wg.Done()
			loop(j, cl)
		}(j, cl)
	}
	wg.Wait()
	return nil
}

// barrier lets n goroutines start each cycle together. The last to arrive
// decides whether the cycle runs; every caller gets the same answer.
type barrier struct {
	mu      sync.Mutex
	n, in   int
	gen     chan struct{}
	proceed bool
	decide  func() bool
}

func newBarrier(n int, decide func() bool) *barrier {
	return &barrier{n: n, gen: make(chan struct{}), decide: decide}
}

func (b *barrier) await() bool {
	b.mu.Lock()
	gen := b.gen
	b.in++
	if b.in == b.n {
		b.in = 0
		b.proceed = b.decide()
		proceed := b.proceed
		close(b.gen)
		b.gen = make(chan struct{})
		b.mu.Unlock()
		return proceed
	}
	b.mu.Unlock()
	<-gen
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.proceed
}
