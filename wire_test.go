package stubby_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/gen"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/wf"
)

// fpOf is the canonical workflow fingerprint used across the wire suites.
func fpOf(t *testing.T, w *stubby.Workflow) string {
	t.Helper()
	if w == nil {
		t.Fatal("nil workflow")
	}
	return wf.FingerprintWorkflow(w).String()
}

// wireGenSeeds is how many generator seeds the round-trip suite covers.
const wireGenSeeds = 10

// profiledGenCase generates and profiles one random workflow.
func profiledGenCase(t *testing.T, seed int64, opt gen.Options) *gen.Case {
	t.Helper()
	c := gen.Generate(seed, opt)
	sess, err := stubby.NewSession(stubby.WithCluster(c.Cluster), stubby.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Profile(context.Background(), c.Workflow, c.DFS); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWireRoundTripFingerprints: encode→decode must reproduce the exact
// canonical fingerprint — structure, configurations, profiles, layouts —
// for every paper workload and ten generated workflows, through all three
// document kinds (plan, optimize-request, optimize-result).
func TestWireRoundTripFingerprints(t *testing.T) {
	type subject struct {
		name    string
		w       *stubby.Workflow
		cluster *stubby.Cluster
	}
	var subjects []subject
	wls := differentialWorkloads(t)
	for _, abbr := range stubby.Workloads() {
		subjects = append(subjects, subject{abbr, wls[abbr].Workflow, wls[abbr].Cluster})
	}
	for seed := int64(1); seed <= wireGenSeeds; seed++ {
		c := profiledGenCase(t, seed, gen.Options{})
		subjects = append(subjects, subject{fmt.Sprintf("gen-%d", seed), c.Workflow, c.Cluster})
	}

	for _, sub := range subjects {
		sub := sub
		t.Run(sub.name, func(t *testing.T) {
			want := fpOf(t, sub.w)

			// Plan document.
			data, err := planio.Encode(sub.w)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := planio.DecodeStructure(data)
			if err != nil {
				t.Fatal(err)
			}
			if got := fpOf(t, decoded); got != want {
				t.Errorf("plan doc round trip changed fingerprint: %s -> %s", want, got)
			}

			// Request document (planner + seed + cluster survive too).
			reqData, err := planio.EncodeRequest(&planio.Request{
				Planner: "stubby", Seed: 7, Cluster: sub.cluster, Plan: sub.w,
			})
			if err != nil {
				t.Fatal(err)
			}
			req, err := planio.DecodeRequest(reqData)
			if err != nil {
				t.Fatal(err)
			}
			if got := fpOf(t, req.Plan); got != want {
				t.Errorf("request doc round trip changed fingerprint: %s -> %s", want, got)
			}
			if req.Planner != "stubby" || req.Seed != 7 {
				t.Errorf("request metadata lost: %+v", req)
			}
			if req.Cluster == nil || *req.Cluster != *sub.cluster {
				t.Errorf("request cluster lost: %+v", req.Cluster)
			}

			// Result document, including the fingerprint integrity check.
			resData, err := planio.EncodeResult(&planio.Result{
				Plan: sub.w, EstimatedCost: 123.5, DurationMS: 42,
				WhatIfCalls: 10, WhatIfComputed: 3, FlowCards: 17,
				Fingerprint: want,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := planio.DecodeResult(resData)
			if err != nil {
				t.Fatal(err)
			}
			if got := fpOf(t, res.Plan); got != want {
				t.Errorf("result doc round trip changed fingerprint: %s -> %s", want, got)
			}
			if res.EstimatedCost != 123.5 || res.WhatIfCalls != 10 ||
				res.WhatIfComputed != 3 || res.FlowCards != 17 {
				t.Errorf("result metadata lost: %+v", res)
			}
		})
	}
}

// TestWireResultFingerprintMismatchRejected: a result document whose plan
// was tampered with fails the integrity check on decode.
func TestWireResultFingerprintMismatchRejected(t *testing.T) {
	c := profiledGenCase(t, 1, gen.Options{})
	data, err := planio.EncodeResult(&planio.Result{
		Plan:        c.Workflow,
		Fingerprint: "0000000000000000AAAAAAAAAAAAAAAA",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := planio.DecodeResult(data); err == nil {
		t.Fatal("tampered result decoded without error")
	}
}

// TestWireGoldens locks the wire bytes of request and result documents for
// two generator seeds into golden files: any schema drift — renamed
// fields, changed defaults, reordered sections — is an explicit diff.
// Like the plan snapshots, -update is forbidden in CI.
func TestWireGoldens(t *testing.T) {
	if *update && os.Getenv("CI") != "" {
		t.Fatal("-update is forbidden in CI: regenerate wire goldens locally and commit the diff")
	}
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// Smaller cases than the round-trip sweep: goldens are for
			// schema drift, and compact documents make reviewable diffs.
			c := profiledGenCase(t, seed, gen.Options{MaxJobs: 4, Records: 120})
			reqData, err := planio.EncodeRequest(&planio.Request{
				Planner: "stubby", Seed: seed, Cluster: c.Cluster, Plan: c.Workflow,
			})
			if err != nil {
				t.Fatal(err)
			}
			resData, err := planio.EncodeResult(&planio.Result{
				Plan: c.Workflow, EstimatedCost: 123.456, DurationMS: 12.5,
				WhatIfCalls: 42, WhatIfComputed: 7, FlowCards: 99,
				Fingerprint: fpOf(t, c.Workflow),
			})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", "wire", fmt.Sprintf("request-seed-%02d.golden", seed)), reqData)
			checkGolden(t, filepath.Join("testdata", "wire", fmt.Sprintf("result-seed-%02d.golden", seed)), resData)
		})
	}
	t.Run("statsz", testStatszGolden)
	t.Run("events", testEventsGolden)
	t.Run("result-robustness", testRobustResultGolden)
}

// goldenStats is a /statsz snapshot with all six sections present and every
// counter distinct and non-zero, omitempty fields included.
func goldenStats() *stubby.ServiceStats {
	return &stubby.ServiceStats{
		Status: "draining", Workers: 11, QueueDepth: 12, Queued: 13, Busy: 14,
		EstimateCache: &stubby.EstimateCacheStats{Hits: 101, Misses: 102, Evictions: 103,
			Entries: 104, Capacity: 105},
		PlanStore: &stubby.PlanStoreStats{Hits: 201, MemHits: 202, DiskHits: 203, Misses: 204,
			Computes: 205, Puts: 206, Evictions: 207, BytesWritten: 208, BytesRead: 209,
			Errors: 210, Entries: 211, Segments: 212, Claims: 213, ClaimWaits: 214, ClaimHits: 215},
		ReuseCatalog: &stubby.ReuseCatalogStats{Entries: 301, Puts: 302, Hits: 303, Misses: 304,
			Compacted: 305, TornBytes: 306, BytesWritten: 307, Errors: 308, Expired: 309, Vanished: 310},
		Journal: &stubby.JournalStats{Submits: 401, Transitions: 402, Recovered: 403,
			Compacted: 404, Compactions: 405, TornBytes: 406, BytesWritten: 407, Errors: 408},
		Cluster: &stubby.ClusterStats{Workers: 501, LiveWorkers: 502, Leases: 503,
			Dispatches: 504, Redispatches: 505, Failovers: 506, SingleFlightHits: 507, Computes: 508},
	}
}

// goldenRobustness is a robustness report whose per-sample makespans must
// stay off the wire.
func goldenRobustness() *stubby.Robustness {
	return &stubby.Robustness{Samples: 4, Mean: 61.25, P50: 60.5, P95: 70.75, P99: 71.5,
		Min: 50.25, Max: 72, FailedOut: 1, Makespans: []float64{50.25, 60.5, 62.25, 72}}
}

// summaryOnly is what a wire-decoded robustness report carries: the
// summary statistics without the per-sample makespans.
func summaryOnly(r *stubby.Robustness) *stubby.Robustness {
	c := *r
	c.Makespans = nil
	return &c
}

// wireFixture serves fixed response bodies by route and returns a client
// of it, for decoding golden documents through the public Client.
func wireFixture(t *testing.T, bodies map[string][]byte) *stubby.Client {
	t.Helper()
	mux := http.NewServeMux()
	for route, body := range bodies {
		body := body
		mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(body)
		})
	}
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	client, err := stubby.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// testStatszGolden pins the /statsz bytes and decodes them back through
// Client.Stats.
func testStatszGolden(t *testing.T) {
	want := goldenStats()
	data := stubby.EncodeStatszForTest(want)
	checkGolden(t, filepath.Join("testdata", "wire", "statsz.golden"), data)
	got, err := wireFixture(t, map[string][]byte{"GET /statsz": data}).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("statsz round trip:\n got %+v\nwant %+v", got, want)
	}
}

// testEventsGolden pins one NDJSON line per event type and decodes the
// stream back through RemoteJob.Events.
func testEventsGolden(t *testing.T) {
	stats := goldenStats()
	events := []stubby.Event{
		stubby.StateChangedEvent{Workflow: "wf", JobID: "job-7", State: stubby.StateRunning},
		stubby.UnitStartedEvent{Workflow: "wf", Phase: "vertical", Unit: 2, Jobs: []string{"j1", "j2"}},
		stubby.SubplanEnumeratedEvent{Workflow: "wf", Unit: 2, Desc: "pack j1+j2", Cost: 12.5},
		stubby.BestCostImprovedEvent{Workflow: "wf", Unit: 2, Desc: "pack j1+j2", Cost: 11.25},
		stubby.JobFinishedEvent{Workflow: "wf", Job: "j1", Start: 1.5, End: 9.75},
		stubby.CacheReportEvent{Workflow: "wf", Stats: *stats.EstimateCache},
		stubby.PlanStoreEvent{Workflow: "wf", Hit: true, Stats: *stats.PlanStore},
		stubby.RobustnessEvent{Workflow: "wf", Report: goldenRobustness()},
		stubby.ReuseReportEvent{Workflow: "wf", Reused: 3, Stats: *stats.ReuseCatalog},
		stubby.StateChangedEvent{Workflow: "wf", JobID: "job-7", State: stubby.StateFailed,
			Err: &stubby.Error{Kind: stubby.ErrKindInvalid, Op: "optimize", Workflow: "wf",
				Job: "j2", Msg: "bad plan"}},
	}
	var data []byte
	for _, ev := range events {
		data = append(data, stubby.EncodeEventForTest(ev)...)
	}
	checkGolden(t, filepath.Join("testdata", "wire", "events.golden"), data)

	client := wireFixture(t, map[string][]byte{"GET /v1/jobs/job-7/events": data})
	ch, err := client.Job("job-7").Events(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got []stubby.Event
	for ev := range ch {
		got = append(got, ev)
	}
	events[7] = stubby.RobustnessEvent{Workflow: "wf", Report: summaryOnly(goldenRobustness())}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("event stream round trip:\n got %+v\nwant %+v", got, events)
	}
}

// testRobustResultGolden pins a result document carrying a robustness
// report and reused sub-plans, and decodes it back through
// RemoteJob.Result.
func testRobustResultGolden(t *testing.T) {
	c := profiledGenCase(t, 1, gen.Options{MaxJobs: 4, Records: 120})
	res := &stubby.Result{Plan: c.Workflow, EstimatedCost: 123.456, Duration: 12 * time.Millisecond,
		WhatIfCalls: 42, WhatIfComputed: 7, FlowCards: 99,
		Robustness: goldenRobustness(), ReusedSubplans: 2}
	data, err := stubby.EncodeResultForTest(res)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "wire", "result-robustness.golden"), data)
	if bytes.Contains(data, []byte("akespans")) {
		t.Error("per-sample makespans leaked onto the wire")
	}

	got, err := wireFixture(t, map[string][]byte{"GET /v1/jobs/job-7/result": data}).
		Job("job-7").Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fpOf(t, got.Plan) != fpOf(t, res.Plan) || got.EstimatedCost != res.EstimatedCost ||
		got.Duration != res.Duration || got.WhatIfCalls != res.WhatIfCalls ||
		got.WhatIfComputed != res.WhatIfComputed || got.FlowCards != res.FlowCards ||
		got.ReusedSubplans != res.ReusedSubplans ||
		!reflect.DeepEqual(got.Robustness, summaryOnly(res.Robustness)) {
		t.Errorf("result round trip:\n got %+v\nwant %+v", got, res)
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if string(want) != string(got) {
		t.Errorf("wire document drifted from golden %s.\n"+
			"If the change is intended, regenerate with:\n"+
			"\tgo test -run TestWireGoldens -update .\nand commit the diff.", path)
	}
}

// TestWireDurationKeepsFraction: Result.Duration crosses Server → Client
// to within a microsecond. The result document carries fractional
// milliseconds; a whole-millisecond encoding would lose up to 1 ms.
func TestWireDurationKeepsFraction(t *testing.T) {
	wl := profiledWorkload(t, "IR", 0.1, 1)
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(1),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 10}))
	if err != nil {
		t.Fatal(err)
	}
	srv := stubby.NewServer(sess)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client, err := stubby.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	job, err := client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow})
	if err != nil {
		t.Fatal(err)
	}
	got, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.JobResultForTest(ctx, job.ID())
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Duration - want.Duration; d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("wire Duration = %v, server-side Duration = %v", got.Duration, want.Duration)
	}
}

// serviceFixture stands up a stubbyd server (real HTTP listener) over a
// fresh session and returns a client for it.
func serviceFixture(t *testing.T, opts ...stubby.SessionOption) (*stubby.Session, *httptest.Server, *stubby.Client) {
	t.Helper()
	base := []stubby.SessionOption{
		stubby.WithSeed(1),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: differentialRRSEvals}),
		stubby.WithIncrementalEstimation(!disableIncremental()),
	}
	sess, err := stubby.NewSession(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(stubby.NewServer(sess))
	t.Cleanup(func() {
		hs.Close()
		_ = sess.Close(context.Background())
	})
	client, err := stubby.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	return sess, hs, client
}

// inProcessPlan optimizes wl in-process with exactly the options the
// service fixture uses, returning the plan fingerprint.
func inProcessPlan(t *testing.T, wl *stubby.Workload) string {
	t.Helper()
	res := optimizeWith(t, wl, "stubby", nil, 1)
	return fpOf(t, res.Plan)
}

// TestServiceE2ESmokeBR is the end-to-end smoke of the acceptance
// criteria: start a server, submit the profiled BR workload over HTTP,
// stream its events, and assert the returned plan is fingerprint-identical
// to the in-process Session.Optimize plan.
func TestServiceE2ESmokeBR(t *testing.T) {
	wl := differentialWorkloads(t)["BR"]
	_, _, client := serviceFixture(t)
	ctx := context.Background()

	job, err := client.Submit(ctx, stubby.OptimizeRequest{
		Workflow: wl.Workflow, Planner: "stubby", Seed: 1, Cluster: wl.Cluster,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := job.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var states []stubby.JobState
	units := 0
	for ev := range events {
		switch e := ev.(type) {
		case stubby.StateChangedEvent:
			states = append(states, e.State)
		case stubby.UnitStartedEvent:
			units++
		}
	}
	if len(states) == 0 || states[len(states)-1] != stubby.StateDone {
		t.Fatalf("streamed states %v, want trailing done", states)
	}
	if units == 0 {
		t.Fatal("no UnitStarted events streamed over HTTP")
	}
	res, err := job.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fpOf(t, res.Plan), inProcessPlan(t, wl); got != want {
		t.Fatalf("remote BR plan fingerprint %s != in-process %s", got, want)
	}
	status, err := job.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.State() != stubby.StateDone || status.Progress.Units == 0 {
		t.Fatalf("remote status %+v", status)
	}
}

// TestWireParityAllWorkloads: for every paper workload, the plan returned
// by stubby.Client through stubbyd is fingerprint-identical to
// Session.Optimize's plan (the cluster travels in the request).
func TestWireParityAllWorkloads(t *testing.T) {
	wls := differentialWorkloads(t)
	_, _, client := serviceFixture(t)
	ctx := context.Background()
	for _, abbr := range stubby.Workloads() {
		abbr := abbr
		t.Run(abbr, func(t *testing.T) {
			wl := wls[abbr]
			job, err := client.Submit(ctx, stubby.OptimizeRequest{
				Workflow: wl.Workflow, Planner: "stubby", Seed: 1, Cluster: wl.Cluster,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := job.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fpOf(t, res.Plan), inProcessPlan(t, wl); got != want {
				t.Errorf("remote %s plan fingerprint %s != in-process %s", abbr, got, want)
			}
			if res.EstimatedCost <= 0 || res.WhatIfCalls == 0 {
				t.Errorf("remote %s result missing cost/counters: %+v", abbr, res)
			}
		})
	}
}

// TestRemoteCancelMidFlightNoLeak: canceling over HTTP transitions the
// job to canceled, Wait surfaces ErrKindCanceled, and no goroutines leak
// (runs under -race in CI).
func TestRemoteCancelMidFlightNoLeak(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	sess, hs, client := serviceFixture(t, stubby.WithParallelism(1), stubby.WithQueueDepth(4))
	started, release := registerBlocking(t, sess)
	defer close(release)
	ctx := context.Background()

	baseline := runtime.NumGoroutine()
	job, err := client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "blocking"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // mid-flight: the search is parked inside the planner
	waitc := make(chan error, 1)
	go func() {
		_, err := job.Wait(ctx)
		waitc <- err
	}()
	status, err := job.Cancel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-waitc; !errors.Is(werr, stubby.ErrKindCanceled) {
		t.Fatalf("Wait after remote cancel = %v, want ErrKindCanceled", werr)
	}
	status, err = job.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.State() != stubby.StateCanceled {
		t.Fatalf("remote state after cancel = %v, want canceled", status.State())
	}
	if !errors.Is(status.Err, stubby.ErrKindCanceled) {
		t.Fatalf("remote status error = %v, want ErrKindCanceled", status.Err)
	}
	// Everything spun up for the canceled job must unwind.
	hs.Client().CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	waitGoroutinesBelow(t, baseline)
}

// TestRemoteOverloadTyped: submissions beyond the admission queue are
// shed with ErrKindOverloaded through the full HTTP round trip (429).
func TestRemoteOverloadTyped(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	sess, _, client := serviceFixture(t, stubby.WithParallelism(1), stubby.WithQueueDepth(1))
	started, release := registerBlocking(t, sess)
	ctx := context.Background()
	req := stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "blocking"}

	j1, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Submit(ctx, req)
	if !errors.Is(err, stubby.ErrKindOverloaded) {
		t.Fatalf("third remote submit = %v, want ErrKindOverloaded", err)
	}
	var se *stubby.Error
	if !errors.As(err, &se) {
		t.Fatalf("remote overload error is not *stubby.Error: %v", err)
	}
	close(release)
	for _, j := range []*stubby.RemoteJob{j1, j2} {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRemoteDisableIncremental: the wire knob reaches the optimizer —
// monolithic estimation computes far more full estimates, while the plan
// stays fingerprint-identical (incremental estimation is bit-transparent).
func TestRemoteDisableIncremental(t *testing.T) {
	wl := differentialWorkloads(t)["IR"]
	_, _, client := serviceFixture(t)
	ctx := context.Background()
	run := func(disable bool) *stubby.Result {
		job, err := client.Submit(ctx, stubby.OptimizeRequest{
			Workflow: wl.Workflow, Planner: "stubby", Seed: 1, Cluster: wl.Cluster,
			DisableIncremental: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	incr := run(false)
	mono := run(true)
	if fpOf(t, incr.Plan) != fpOf(t, mono.Plan) {
		t.Fatal("DisableIncremental changed the plan (must be bit-transparent)")
	}
	if mono.WhatIfComputed <= incr.WhatIfComputed {
		t.Fatalf("DisableIncremental not honored over the wire: monolithic computed %d full estimates, incremental %d",
			mono.WhatIfComputed, incr.WhatIfComputed)
	}
}

// TestServerJobRetention: finished jobs beyond the retention bound are
// forgotten oldest-first; recent ones stay queryable.
func TestServerJobRetention(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	sess, err := stubby.NewSession(stubby.WithParallelism(1), stubby.WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(stubby.NewServer(sess, stubby.WithJobRetention(2)))
	defer hs.Close()
	defer sess.Close(context.Background())
	client, err := stubby.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var jobs []*stubby.RemoteJob
	for i := 0; i < 5; i++ {
		job, err := client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "baseline"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	// Submitting job 5 saw four finished jobs and pruned down to two.
	for _, j := range jobs[:2] {
		if _, err := j.Status(ctx); !errors.Is(err, stubby.ErrKindNotFound) {
			t.Fatalf("evicted job %s status = %v, want ErrKindNotFound", j.ID(), err)
		}
	}
	for _, j := range jobs[2:] {
		if _, err := j.Status(ctx); err != nil {
			t.Fatalf("retained job %s status = %v", j.ID(), err)
		}
	}
}

// TestServerDrain: a draining server rejects new submissions with
// ErrKindUnavailable (503) while admitted jobs finish, and a drain
// deadline force-cancels parked jobs instead of hanging.
func TestServerDrain(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	sess, err := stubby.NewSession(stubby.WithParallelism(1), stubby.WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	started, release := registerBlocking(t, sess)
	defer close(release)
	srv := stubby.NewServer(sess)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client, err := stubby.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	job, err := client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "blocking"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is parked; a zero-deadline drain must force-cancel it
	drainCtx, cancel := context.WithCancel(ctx)
	cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("forced drain = %v", err)
	}
	status, err := job.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.State() != stubby.StateCanceled {
		t.Fatalf("parked job after forced drain = %v, want canceled", status.State())
	}
	if _, err := client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow}); !errors.Is(err, stubby.ErrKindUnavailable) {
		t.Fatalf("submit to draining server = %v, want ErrKindUnavailable", err)
	}
}

// TestRemoteErrorTaxonomy: the remaining wire error paths carry their
// kinds — invalid documents, unknown jobs, results before completion.
func TestRemoteErrorTaxonomy(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	sess, hs, client := serviceFixture(t, stubby.WithParallelism(1), stubby.WithQueueDepth(4))
	started, release := registerBlocking(t, sess)
	defer close(release)
	ctx := context.Background()

	// Unknown job IDs: not found.
	if _, err := client.Job("job-999").Status(ctx); !errors.Is(err, stubby.ErrKindNotFound) {
		t.Fatalf("unknown job = %v, want ErrKindNotFound", err)
	}
	// Garbage documents: invalid.
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage submit status = %d, want 400", resp.StatusCode)
	}
	// Result before completion: conflict.
	job, err := client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "blocking"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := job.Result(ctx); !errors.Is(err, stubby.ErrKindConflict) {
		t.Fatalf("early result = %v, want ErrKindConflict", err)
	}
	// Unknown planner: typed through the wire.
	_, err = client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "nope"})
	if !errors.Is(err, stubby.ErrKindUnknownPlanner) {
		t.Fatalf("unknown planner = %v, want ErrKindUnknownPlanner", err)
	}
}
