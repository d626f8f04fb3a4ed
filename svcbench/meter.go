package main

// meter.go holds the benchmark's measurement points at the program's public
// boundaries: an http.RoundTripper for the Client and the coordinator's
// dispatch client, an http.Handler wrapper for every node's Server, and a
// session Observer for optimizer units. Nothing here reaches inside the
// program; each records what crosses the boundary it wraps.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/planio"
)

// Routes of the stubbyd job API, as route() names them.
const (
	routeSubmit = "submit"
	routeStatus = "status"
	routeResult = "result"
	routeEvents = "events"
	routeOther  = "other"
)

// route names the job-API route of a request.
func route(method, path string) string {
	if path == "/v1/jobs" && method == http.MethodPost {
		return routeSubmit
	}
	rest, ok := strings.CutPrefix(path, "/v1/jobs/")
	if !ok {
		return routeOther
	}
	_, sub, found := strings.Cut(rest, "/")
	switch {
	case !found && method == http.MethodGet:
		return routeStatus
	case sub == "result":
		return routeResult
	case sub == "events":
		return routeEvents
	}
	return routeOther
}

// jobID extracts the job ID from a /v1/jobs/{id}[/...] path.
func jobID(path string) string {
	rest, _ := strings.CutPrefix(path, "/v1/jobs/")
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// timings collects durations in milliseconds per name. It is safe for
// concurrent use.
type timings struct {
	mu sync.Mutex
	ms map[string][]float64
}

func (t *timings) add(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ms == nil {
		t.ms = make(map[string][]float64)
	}
	t.ms[name] = append(t.ms[name], float64(d)/float64(time.Millisecond))
}

// take returns the collected durations and starts over.
func (t *timings) take() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ms := t.ms
	t.ms = nil
	return ms
}

// meter is an http.RoundTripper that counts calls and body bytes in both
// directions. Traced, it also times each call from the request until its
// response body is consumed, per route. It optionally keeps each job's
// result body for the output checks, and (in tests) rewrites result bodies
// before the caller sees them.
type meter struct {
	next  http.RoundTripper
	trace bool
	// keepResults keeps every 200 result body, by job ID, for takeResult.
	keepResults bool
	// tamper, when set, rewrites result bodies in flight.
	tamper func([]byte) []byte
	// timeDispatch times each job from its submit to its result fetch, as
	// the coordinator dispatches them.
	timeDispatch bool

	sent, recv atomic.Int64
	rtt        timings

	mu       sync.Mutex
	results  map[string][]byte
	counts   map[string]int       // calls per route
	started  map[string]time.Time // host+job ID → when its submit began
	dispatch []float64            // submit→result per dispatched job, ms
}

func newMeter(next http.RoundTripper, trace bool) *meter {
	return &meter{next: next, trace: trace, results: make(map[string][]byte),
		counts: make(map[string]int), started: make(map[string]time.Time)}
}

// meterSnapshot is a meter's activity since its last reset.
type meterSnapshot struct {
	sent, recv int64
	counts     map[string]int // calls per route
	rtt        map[string][]float64
	dispatch   []float64
}

// reset starts a new measurement window and returns the previous one.
func (m *meter) reset() meterSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := meterSnapshot{sent: m.sent.Swap(0), recv: m.recv.Swap(0),
		counts: m.counts, rtt: m.rtt.take(), dispatch: m.dispatch}
	m.counts = make(map[string]int)
	m.dispatch = nil
	return s
}

// calls is the number of HTTP calls in the snapshot.
func (s meterSnapshot) calls() int {
	n := 0
	for _, c := range s.counts {
		n += c
	}
	return n
}

// takeResult returns and forgets the result body the meter kept for a job.
func (m *meter) takeResult(id string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	body := m.results[id]
	delete(m.results, id)
	return body
}

func (m *meter) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	rt := route(req.Method, req.URL.Path)
	if req.ContentLength > 0 {
		m.sent.Add(req.ContentLength)
	}
	m.mu.Lock()
	m.counts[rt]++
	m.mu.Unlock()
	resp, err := m.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if m.tamper != nil && rt == routeResult && resp.StatusCode == http.StatusOK {
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		data = m.tamper(data)
		resp.Body = io.NopCloser(bytes.NewReader(data))
		resp.ContentLength = int64(len(data))
	}
	b := &meteredBody{ReadCloser: resp.Body, m: m, route: rt, start: start,
		host: req.URL.Host, id: jobID(req.URL.Path)}
	keep := resp.StatusCode == http.StatusOK && m.keepResults && rt == routeResult
	ack := resp.StatusCode == http.StatusAccepted && m.timeDispatch && rt == routeSubmit
	if keep || ack {
		b.buf = new(bytes.Buffer)
	}
	resp.Body = b
	return resp, nil
}

// meteredBody counts a response body's bytes and, once it is consumed or
// closed, records the call.
type meteredBody struct {
	io.ReadCloser
	m               *meter
	route, host, id string
	start           time.Time
	buf             *bytes.Buffer
	finished        bool
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.m.recv.Add(int64(n))
	if b.buf != nil {
		b.buf.Write(p[:n])
	}
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *meteredBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *meteredBody) finish() {
	if b.finished {
		return
	}
	b.finished = true
	m, now := b.m, time.Now()
	if m.trace && b.route != routeEvents {
		m.rtt.add(b.route, now.Sub(b.start))
	}
	if b.buf == nil && !m.timeDispatch {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch b.route {
	case routeResult:
		if b.buf != nil {
			m.results[b.id] = b.buf.Bytes()
		}
		if start, ok := m.started[b.host+b.id]; ok {
			m.dispatch = append(m.dispatch, float64(now.Sub(start))/float64(time.Millisecond))
			delete(m.started, b.host+b.id)
		}
	case routeSubmit:
		var ack planio.SubmitResponse
		if b.buf != nil && json.Unmarshal(b.buf.Bytes(), &ack) == nil && ack.ID != "" {
			m.started[b.host+ack.ID] = b.start
		}
	}
}

// routeTimer wraps every node's Server to time each call per route. Event
// streams last as long as their job and are not timed.
type routeTimer struct {
	t    timings
	busy atomic.Int64 // nanoseconds spent in timed handlers
}

func (rt *routeTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := route(r.Method, r.URL.Path)
		if name == routeEvents {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		rt.t.add(name, d)
		rt.busy.Add(int64(d))
	})
}

// reset starts a new measurement window and returns the previous one.
func (rt *routeTimer) reset() (map[string][]float64, time.Duration) {
	return rt.t.take(), time.Duration(rt.busy.Swap(0))
}

// unitObserver is a session Observer that counts optimizer units and
// enumerated subplans and splits search time by phase: a unit runs from its
// UnitStarted to the next one of the same workflow, and the last unit ends
// at the EstimateCacheReport every optimization closes with.
type unitObserver struct {
	stubby.NopObserver
	mu       sync.Mutex
	units    int
	subplans int
	phaseMS  map[string]float64
	open     map[string]openUnit // by workflow
}

type openUnit struct {
	phase string
	start time.Time
}

func newUnitObserver() *unitObserver {
	return &unitObserver{phaseMS: make(map[string]float64), open: make(map[string]openUnit)}
}

func (o *unitObserver) closeLocked(workflow string, now time.Time) {
	if u, ok := o.open[workflow]; ok {
		o.phaseMS[u.phase] += float64(now.Sub(u.start)) / float64(time.Millisecond)
		delete(o.open, workflow)
	}
}

func (o *unitObserver) UnitStarted(workflow, phase string, _ int, _ []string) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.closeLocked(workflow, now)
	o.units++
	o.open[workflow] = openUnit{phase: phase, start: now}
}

func (o *unitObserver) SubplanEnumerated(string, int, string, float64) {
	o.mu.Lock()
	o.subplans++
	o.mu.Unlock()
}

func (o *unitObserver) EstimateCacheReport(workflow string, _ stubby.EstimateCacheStats) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.closeLocked(workflow, now)
}

// unitSnapshot is an observer's activity since its last reset.
type unitSnapshot struct {
	units, subplans int
	phaseMS         map[string]float64
}

func (o *unitObserver) reset() unitSnapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := unitSnapshot{units: o.units, subplans: o.subplans, phaseMS: o.phaseMS}
	o.units, o.subplans = 0, 0
	o.phaseMS = make(map[string]float64)
	return s
}
