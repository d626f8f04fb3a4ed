package main

// report.go runs the timed phases and turns them into the benchmark's
// metrics: end-to-end ones from an untraced phase, per-layer ones from a
// traced phase.

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"

	"github.com/stubby-mr/stubby"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line the benchmark prints last.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Report is a run's result plus what it prints for people.
type Report struct {
	Result Result
	// Digest hashes (key → plan fingerprint) over the workload's first
	// round of keys; DigestKeys says how many of them the run completed.
	Digest, DigestKeys string
	// Notes explain failed checks; Summary is a human-readable digest.
	Notes   []string
	Summary []string
}

// Run sets the workload up, measures it, and checks its outputs.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Workflows) == 0 {
		cfg.Workflows = stubby.Workloads()
	}
	wl, err := lookupWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if !cfg.Trace {
		var setups []float64
		var e *env
		for r := 0; r < setupReps; r++ {
			if e != nil {
				if err := e.close(); err != nil {
					return nil, err
				}
			}
			start := time.Now()
			if e, err = setup(ctx, cfg, wl, false); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		ph, err := runPhase(ctx, e, cfg.Duration)
		if cerr := e.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		rep := ph.report(ph.endToEnd(median(setups)))
		rep.Summary = append(rep.Summary, fmt.Sprintf("setup_s per set-up: %.3f", setups))
		return rep, nil
	}

	// Traced run: an untraced phase is the reference for tracing overhead,
	// then a traced phase on a fresh set-up gives the per-layer metrics.
	half := max(cfg.Duration/2, time.Millisecond)
	e, err := setup(ctx, cfg, wl, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	base, err := runPhase(ctx, e, half)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if e, err = setup(ctx, cfg, wl, true); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	ph, err := runPhase(ctx, e, half)
	var rp replayStats
	if err == nil {
		rp, err = e.replay()
	}
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rep := ph.report(ph.perLayer(base, rp))
	rep.Result.Attempted += len(base.jobs)
	rep.Result.Failed += base.failed
	rep.Result.Correct = rep.Result.Failed == 0
	rep.Notes = append(base.notes, rep.Notes...)
	rep.Summary = append(rep.Summary, fmt.Sprintf("untraced reference: %d jobs, %.3f jobs/s, p50 %.1f ms",
		len(base.jobs), base.jobsPerS(), base.latencyMS(0.5)))
	return rep, nil
}

// phase is one timed closed-loop window and everything measured over it.
type phase struct {
	e          *env
	elapsed    time.Duration
	jobs       []jobRecord
	cpu        time.Duration
	peakMiB    float64
	rt0, rt1   []metrics.Sample
	client     meterSnapshot
	disp       meterSnapshot
	routes     map[string][]float64
	busy       time.Duration
	units      unitSnapshot
	before     []*stubby.ServiceStats
	after      []*stubby.ServiceStats
	failed     int
	notes      []string
	digest     string
	digestKeys string
}

func (ph *phase) note(format string, args ...any) {
	ph.notes = append(ph.notes, fmt.Sprintf(format, args...))
}

// runPhase measures the workload on a set-up env for d, then checks it.
func runPhase(ctx context.Context, e *env, d time.Duration) (*phase, error) {
	t := e.topo
	ph := &phase{e: e}
	var err error
	if ph.before, err = t.stats(ctx); err != nil {
		return nil, err
	}
	t.client.reset()
	if t.disp != nil {
		t.disp.reset()
	}
	if t.routes != nil {
		t.routes.reset()
	}
	for _, n := range t.nodes {
		if n.obs != nil {
			n.obs.reset()
		}
	}
	ph.rt0 = readRuntime()
	cpu0 := cpuTime()
	stopSampler := samplePeakMemory()
	start := time.Now()
	runErr := e.wl.run(e, ctx, d)
	ph.elapsed = time.Since(start)
	ph.peakMiB = stopSampler()
	if runErr != nil {
		return nil, runErr
	}
	ph.cpu = cpuTime() - cpu0
	ph.rt1 = readRuntime()
	ph.client = t.client.reset()
	if t.disp != nil {
		ph.disp = t.disp.reset()
	}
	if t.routes != nil {
		ph.routes, ph.busy = t.routes.reset()
	}
	for _, n := range t.nodes {
		if n.obs != nil {
			s := n.obs.reset()
			ph.units.units += s.units
			ph.units.subplans += s.subplans
			if ph.units.phaseMS == nil {
				ph.units.phaseMS = make(map[string]float64)
			}
			for k, v := range s.phaseMS {
				ph.units.phaseMS[k] += v
			}
		}
	}
	if ph.after, err = t.stats(ctx); err != nil {
		return nil, err
	}
	e.mu.Lock()
	ph.jobs = e.jobs
	e.mu.Unlock()
	e.verify(ph)
	return ph, nil
}

func (ph *phase) report(m map[string]metric) *Report {
	attempted := max(len(ph.jobs), 1)
	rep := &Report{
		Result: Result{Correct: ph.failed == 0, Attempted: attempted, Failed: ph.failed, Metrics: m},
		Digest: ph.digest, DigestKeys: ph.digestKeys, Notes: ph.notes,
	}
	if len(ph.jobs) == 0 {
		rep.Result.Correct = false
		rep.Result.Failed = attempted
		rep.Notes = append(rep.Notes, "no job was attempted")
	}
	byInput := make(map[string][]float64)
	for _, j := range ph.ok() {
		byInput[ph.e.abbr(j.key)] = append(byInput[ph.e.abbr(j.key)], msOf(j.latency))
	}
	perInput := "median latency by workflow, ms:"
	for _, in := range ph.e.ins {
		if ms, ok := byInput[in.abbr]; ok {
			perInput += fmt.Sprintf(" %s %.0f", in.abbr, median(ms))
		}
	}
	p := ph.e.wl.tail
	rep.Summary = append(rep.Summary, perInput)
	rep.Summary = append(rep.Summary, fmt.Sprintf("%s: %d jobs (%d failed) in %.2f s, %d distinct keys; p50 %.1f ms, p%g %.1f ms",
		ph.e.wl.name, len(ph.jobs), ph.failed, ph.elapsed.Seconds(), len(ph.e.sent),
		ph.latencyMS(0.5), 100*p, ph.latencyMS(p)))
	return rep
}

// ok returns the jobs that succeeded and passed their checks' decode.
func (ph *phase) ok() []jobRecord {
	var out []jobRecord
	for _, j := range ph.jobs {
		if j.err == nil {
			out = append(out, j)
		}
	}
	return out
}

func (ph *phase) jobsPerS() float64 {
	return float64(len(ph.ok())) / ph.elapsed.Seconds()
}

// perJob divides a phase total by its completed jobs.
func (ph *phase) perJob(total float64) float64 {
	return total / float64(max(len(ph.ok()), 1))
}

func (ph *phase) latencies() []float64 {
	var ms []float64
	for _, j := range ph.ok() {
		ms = append(ms, msOf(j.latency))
	}
	sort.Float64s(ms)
	return ms
}

func (ph *phase) latencyMS(p float64) float64 { return percentile(ph.latencies(), p) }

// endToEnd computes the metrics a user of the service sees.
func (ph *phase) endToEnd(setupS float64) map[string]metric {
	ok := ph.ok()
	attempted := max(len(ph.jobs), 1)
	logSum := 0.0
	for _, j := range ok {
		logSum += math.Log(ph.e.ins[j.key.in].cost / j.cost)
	}
	speedup := 0.0
	if len(ok) > 0 {
		speedup = math.Exp(logSum / float64(len(ok)))
	}
	wire := ph.client.sent + ph.client.recv + ph.disp.sent + ph.disp.recv
	return map[string]metric{
		"setup_s":            {setupS, "s"},
		"jobs_per_s":         {ph.jobsPerS(), "1/s"},
		"latency_p50_ms":     {ph.latencyMS(0.5), "ms"},
		"latency_tail_ms":    {ph.latencyMS(ph.e.wl.tail), "ms"},
		"success_ratio":      {float64(attempted-ph.failed) / float64(attempted), "ratio"},
		"cpu_ms_per_job":     {ph.perJob(msOf(ph.cpu)), "ms"},
		"peak_rss_mib":       {ph.peakMiB, "MiB"},
		"wire_bytes_per_job": {ph.perJob(float64(wire)), "B"},
		"plan_speedup":       {speedup, "x"},
	}
}

// storeDelta sums the plan-store counters of every node over the phase.
func (ph *phase) storeDelta() stubby.PlanStoreStats {
	var d stubby.PlanStoreStats
	for i, a := range ph.after {
		b := ph.before[i]
		if a.PlanStore == nil || b.PlanStore == nil {
			continue
		}
		x, y := a.PlanStore, b.PlanStore
		d.Hits += x.Hits - y.Hits
		d.Misses += x.Misses - y.Misses
		d.Computes += x.Computes - y.Computes
		d.ClaimWaits += x.ClaimWaits - y.ClaimWaits
		d.ClaimHits += x.ClaimHits - y.ClaimHits
		d.BytesRead += x.BytesRead - y.BytesRead
		d.BytesWritten += x.BytesWritten - y.BytesWritten
	}
	return d
}

// perLayer computes the traced phase's per-layer metrics; base is the
// untraced reference phase.
func (ph *phase) perLayer(base *phase, rp replayStats) map[string]metric {
	ok := ph.ok()
	var waitMS, queueMS, optMS, latMS float64
	var overloads int
	var calls, computed, cards uint64
	for _, j := range ok {
		waitMS += msOf(j.wait)
		queueMS += msOf(j.queueWait)
		optMS += msOf(j.optimizer)
		latMS += msOf(j.latency)
		overloads += j.overloads
		calls += j.whatIfCalls
		computed += j.whatIfComputed
		cards += j.flowCards
	}
	var jn stubby.JournalStats
	var cacheHits, cacheMisses uint64
	var redispatches, failovers uint64
	for i, a := range ph.after {
		b := ph.before[i]
		if a.Journal != nil && b.Journal != nil {
			jn.Submits += a.Journal.Submits - b.Journal.Submits
			jn.Transitions += a.Journal.Transitions - b.Journal.Transitions
			jn.BytesWritten += a.Journal.BytesWritten - b.Journal.BytesWritten
			jn.Errors += a.Journal.Errors - b.Journal.Errors
		}
		if a.EstimateCache != nil && b.EstimateCache != nil {
			cacheHits += a.EstimateCache.Hits - b.EstimateCache.Hits
			cacheMisses += a.EstimateCache.Misses - b.EstimateCache.Misses
		}
		if a.Cluster != nil && b.Cluster != nil {
			redispatches += a.Cluster.Redispatches - b.Cluster.Redispatches
			failovers += a.Cluster.Failovers - b.Cluster.Failovers
		}
	}
	st := ph.storeDelta()
	gcCPU := ph.rtDelta(rtGCCPU)
	totalCPU := ph.rtDelta(rtTotalCPU)
	p := ph.e.wl.tail
	attempted := len(ph.jobs) + len(base.jobs)
	return map[string]metric{
		"client.submit_rtt_ms":            {median(ph.client.rtt[routeSubmit]), "ms"},
		"client.result_rtt_ms":            {median(ph.client.rtt[routeResult]), "ms"},
		"client.wait_ms":                  {ph.perJob(waitMS), "ms"},
		"client.http_calls_per_job":       {ph.perJob(float64(ph.client.calls())), "count"},
		"client.bytes_sent_per_job":       {ph.perJob(float64(ph.client.sent)), "B"},
		"client.bytes_recv_per_job":       {ph.perJob(float64(ph.client.recv)), "B"},
		"server.submit_ms":                {median(ph.routes[routeSubmit]), "ms"},
		"server.result_ms":                {median(ph.routes[routeResult]), "ms"},
		"server.status_calls_per_job":     {ph.perJob(float64(len(ph.routes[routeStatus]))), "count"},
		"server.busy_s":                   {ph.busy.Seconds(), "s"},
		"planio.decode_request_ms":        {rp.decodeRequest, "ms"},
		"planio.encode_request_ms":        {rp.encodeRequest, "ms"},
		"planio.encode_result_ms":         {rp.encodeResult, "ms"},
		"planio.decode_result_bound_ms":   {rp.decodeResultBound, "ms"},
		"planio.alloc_mib_per_doc":        {rp.allocMiBPerDoc, "MiB"},
		"wf.fingerprint_ms":               {rp.fingerprint, "ms"},
		"service.queue_wait_ms":           {ph.perJob(queueMS), "ms"},
		"service.overloads":               {float64(overloads), "count"},
		"journal.appends_per_job":         {ph.perJob(float64(jn.Submits + jn.Transitions)), "count"},
		"journal.bytes_per_job":           {ph.perJob(float64(jn.BytesWritten)), "B"},
		"journal.append_ms":               {rp.journalAppend, "ms"},
		"journal.errors":                  {float64(jn.Errors), "count"},
		"planstore.hit_ratio":             {ratio(st.Hits, st.Hits+st.Misses), "ratio"},
		"planstore.computes":              {float64(st.Computes), "count"},
		"planstore.claim_waits":           {float64(st.ClaimWaits), "count"},
		"planstore.claim_hits":            {float64(st.ClaimHits), "count"},
		"planstore.get_ms":                {rp.storeGet, "ms"},
		"planstore.put_ms":                {rp.storePut, "ms"},
		"planstore.bytes_read_per_job":    {ph.perJob(float64(st.BytesRead)), "B"},
		"planstore.bytes_written_per_job": {ph.perJob(float64(st.BytesWritten)), "B"},
		"cluster.dispatch_ms":             {median(ph.disp.dispatch), "ms"},
		"cluster.polls_per_job":           {ph.perJob(float64(ph.disp.counts[routeStatus])), "count"},
		"cluster.bytes_per_job":           {ph.perJob(float64(ph.disp.sent + ph.disp.recv)), "B"},
		"cluster.redispatches":            {float64(redispatches), "count"},
		"cluster.failovers":               {float64(failovers), "count"},
		"optimizer.ms":                    {ph.perJob(optMS), "ms"},
		"optimizer.share":                 {safeDiv(optMS, latMS), "ratio"},
		"optimizer.units_per_job":         {ph.perJob(float64(ph.units.units)), "count"},
		"optimizer.subplans_per_job":      {ph.perJob(float64(ph.units.subplans)), "count"},
		"optimizer.phase_ms.vertical":     {ph.perJob(ph.units.phaseMS["vertical"]), "ms"},
		"optimizer.phase_ms.horizontal":   {ph.perJob(ph.units.phaseMS["horizontal"]), "ms"},
		"optimizer.phase_ms.config":       {ph.perJob(ph.units.phaseMS["config"]), "ms"},
		"whatif.calls_per_job":            {ph.perJob(float64(calls)), "count"},
		"whatif.computed_per_job":         {ph.perJob(float64(computed)), "count"},
		"whatif.flow_cards_per_job":       {ph.perJob(float64(cards)), "count"},
		"whatif.us_per_flow_card":         {safeDiv(1000*optMS, float64(cards)), "us"},
		"estcache.hit_ratio":              {ratio(cacheHits, cacheHits+cacheMisses), "ratio"},
		"rrs.evals_per_subplan":           {safeDiv(float64(calls), float64(ph.units.subplans)), "count"},
		"runtime.gc_cpu_fraction":         {safeDiv(gcCPU, totalCPU), "ratio"},
		"runtime.alloc_mib_per_job":       {ph.perJob(ph.rtDelta(rtAllocs) / (1 << 20)), "MiB"},
		"runtime.gc_cycles_per_job":       {ph.perJob(ph.rtDelta(rtGCCycles)), "count"},
		"trace.jobs_per_s_ratio":          {safeDiv(ph.jobsPerS(), base.jobsPerS()), "ratio"},
		"trace.latency_p50_ratio":         {safeDiv(ph.latencyMS(0.5), base.latencyMS(0.5)), "ratio"},
		"error_rate":                      {float64(ph.failed+base.failed) / float64(max(attempted, 1)), "ratio"},
		"latency_tail_pct":                {100 * p, "pct"},
	}
}

// Runtime metrics read around a phase.
const (
	rtGCCPU = iota
	rtTotalCPU
	rtAllocs
	rtGCCycles
	rtMemTotal
	rtMemReleased
)

var runtimeNames = []string{
	rtGCCPU:       "/cpu/classes/gc/total:cpu-seconds",
	rtTotalCPU:    "/cpu/classes/total:cpu-seconds",
	rtAllocs:      "/gc/heap/allocs:bytes",
	rtGCCycles:    "/gc/cycles/total:gc-cycles",
	rtMemTotal:    "/memory/classes/total:bytes",
	rtMemReleased: "/memory/classes/heap/released:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func (ph *phase) rtDelta(i int) float64 {
	return sampleValue(ph.rt1[i]) - sampleValue(ph.rt0[i])
}

// samplePeakMemory samples the memory the Go runtime holds from the OS
// (mapped minus released to the OS) every 10 ms until the returned
// function is called, which returns the peak in MiB. The benchmark and all
// its nodes share one process, so this is the serving process's resident
// Go memory.
func samplePeakMemory() func() float64 {
	stop, done := make(chan struct{}), make(chan float64)
	go func() {
		s := readRuntime()
		peak := 0.0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, sampleValue(s[rtMemTotal])-sampleValue(s[rtMemReleased]))
			select {
			case <-stop:
				done <- peak / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(n int, p float64) int {
	return max(int(math.Ceil(p*float64(n))), 1)
}

// percentile reads percentile p of sorted values by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func ratio(a, b uint64) float64 { return safeDiv(float64(a), float64(b)) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
