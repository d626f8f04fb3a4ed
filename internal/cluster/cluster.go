// Package cluster turns stubbyd into a horizontally scaled service: a
// coordinator accepts the ordinary /v1/jobs API and dispatches each
// optimization to a pool of registered workers, themselves plain stubbyd
// processes that also run an Agent (register + heartbeat).
//
// The control plane is deliberately thin. Workers register with a base URL
// and renew a lease by heartbeating; the data plane is the existing job
// wire — the coordinator submits to a worker's /v1/jobs, polls its status,
// and fetches the result document verbatim. Failure handling composes with
// the layers below rather than duplicating them: a worker whose lease
// expires mid-job gets its jobs re-dispatched to a live worker, and
// because every worker shares the plan store (and may journal its queue),
// a re-dispatched or crash-recovered job converges to the byte-identical
// plan through the store's content addressing and cross-replica
// single-flight.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/stubby-mr/stubby/internal/planio"
)

// ErrNoWorkers reports a dispatch attempted with no live workers. The
// serving layer treats it as the failover signal: the coordinator's own
// session optimizes locally instead of failing the job.
var ErrNoWorkers = errors.New("cluster: no live workers")

const (
	// DefaultLeaseTTL is how long a silent worker keeps its lease.
	DefaultLeaseTTL = 3 * time.Second
	// defaultPollInterval paces the coordinator's status polls against a
	// worker executing one of its jobs.
	defaultPollInterval = 20 * time.Millisecond
	// maxDispatchAttempts bounds re-dispatch: a job that fails
	// transiently on this many distinct attempts stops bouncing.
	maxDispatchAttempts = 8
)

// transientError marks a dispatch failure worth retrying on another
// worker: connection failures, worker overload or drain, lease expiry.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func transient(format string, args ...any) error {
	return &transientError{fmt.Errorf(format, args...)}
}

func isTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// worker is one registered replica.
type worker struct {
	id       string
	url      string
	lastBeat time.Time
	dead     bool // marked unreachable; revives by re-registering
	leases   int  // in-flight dispatches held by this worker

	// Last heartbeat-reported store counters, summed into Stats so the
	// coordinator can report cluster-wide single-flight effectiveness
	// without polling every worker.
	claimHits uint64
	computes  uint64
}

// Coordinator owns cluster membership and job dispatch.
type Coordinator struct {
	leaseTTL time.Duration
	poll     time.Duration
	hc       *http.Client

	mu      sync.Mutex
	workers map[string]*worker
	nextID  int

	dispatches   uint64
	redispatches uint64
	failovers    uint64
}

// Option configures a Coordinator.
type Option func(*Coordinator)

// WithLeaseTTL sets how long a worker's lease survives without a
// heartbeat. Heartbeats are sent at a third of the TTL.
func WithLeaseTTL(d time.Duration) Option {
	return func(c *Coordinator) {
		if d > 0 {
			c.leaseTTL = d
		}
	}
}

// WithHTTPClient sets the HTTP client used for dispatch.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Coordinator) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithPollInterval sets the status-poll pacing for in-flight dispatches.
func WithPollInterval(d time.Duration) Option {
	return func(c *Coordinator) {
		if d > 0 {
			c.poll = d
		}
	}
}

// New builds a Coordinator with no workers.
func New(opts ...Option) *Coordinator {
	c := &Coordinator{
		leaseTTL: DefaultLeaseTTL,
		poll:     defaultPollInterval,
		hc:       &http.Client{},
		workers:  make(map[string]*worker),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// LeaseTTL reports the configured worker lease TTL.
func (c *Coordinator) LeaseTTL() time.Duration { return c.leaseTTL }

// Register admits (or revives) a worker and returns its ID and lease TTL.
// A worker re-registering under its previous ID keeps it; an unknown or
// empty ID gets a fresh one.
func (c *Coordinator) Register(wurl, id string) (string, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[id]; id != "" && ok {
		w.url = wurl
		w.lastBeat = time.Now()
		w.dead = false
		return w.id, c.leaseTTL
	}
	c.nextID++
	w := &worker{id: fmt.Sprintf("w-%d", c.nextID), url: wurl, lastBeat: time.Now()}
	c.workers[w.id] = w
	return w.id, c.leaseTTL
}

// Heartbeat renews a worker's lease and records its reported store
// counters. It reports false — re-register — for workers the coordinator
// does not know or has marked dead, so a worker that was presumed lost
// re-admits itself cleanly instead of heartbeating into the void.
func (c *Coordinator) Heartbeat(id string, claimHits, computes uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok || w.dead {
		return false
	}
	w.lastBeat = time.Now()
	w.claimHits = claimHits
	w.computes = computes
	return true
}

// liveLocked reports whether w holds a valid lease. Callers hold c.mu.
func (c *Coordinator) liveLocked(w *worker, now time.Time) bool {
	return !w.dead && now.Sub(w.lastBeat) <= c.leaseTTL
}

// alive reports whether the worker named id currently holds a lease.
func (c *Coordinator) alive(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	return ok && c.liveLocked(w, time.Now())
}

// markDead drops a worker from dispatch until it re-registers.
func (c *Coordinator) markDead(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[id]; ok {
		w.dead = true
	}
}

// pick returns the live worker with the fewest in-flight dispatches (ties
// broken by ID for determinism), or nil when no worker holds a lease.
func (c *Coordinator) pick() *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	var best *worker
	for _, w := range c.workers {
		if !c.liveLocked(w, now) {
			continue
		}
		if best == nil || w.leases < best.leases || (w.leases == best.leases && w.id < best.id) {
			best = w
		}
	}
	if best != nil {
		best.leases++
	}
	return best
}

func (c *Coordinator) dropLease(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[id]; ok && w.leases > 0 {
		w.leases--
	}
}

// Workers snapshots the membership for /v1/cluster/workers.
func (c *Coordinator) Workers() []planio.WorkerDoc {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	docs := make([]planio.WorkerDoc, 0, len(c.workers))
	for _, w := range c.workers {
		docs = append(docs, planio.WorkerDoc{
			ID:         w.id,
			URL:        w.url,
			Live:       c.liveLocked(w, now),
			Leases:     w.leases,
			LastBeatMS: w.lastBeat.UnixMilli(),
		})
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID < docs[j].ID })
	return docs
}

// Stats snapshots a coordinator's view of the cluster: membership, live
// leases, the dispatch/failover counters, and the cluster-wide
// single-flight totals summed from worker heartbeats. Its JSON form is the
// cluster section of a coordinator's /statsz.
type Stats struct {
	// Workers is total registered; LiveWorkers those holding a lease.
	Workers     int `json:"workers"`
	LiveWorkers int `json:"liveWorkers"`
	// Leases is the number of in-flight dispatches on live workers.
	Leases int `json:"leases"`
	// Dispatches counts first dispatch attempts; Redispatches counts
	// attempts re-routed off a dead or expired worker; Failovers counts
	// jobs that found no live worker and ran on the coordinator itself.
	Dispatches   uint64 `json:"dispatches"`
	Redispatches uint64 `json:"redispatches"`
	Failovers    uint64 `json:"failovers"`
	// SingleFlightHits sums the workers' last-reported cross-replica
	// single-flight hits (optimizations answered by another replica's
	// concurrent computation); Computes sums the optimizations workers
	// actually ran.
	SingleFlightHits uint64 `json:"singleFlightHits"`
	Computes         uint64 `json:"computes"`
}

// Stats snapshots the cluster counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	st := Stats{
		Workers:      len(c.workers),
		Dispatches:   c.dispatches,
		Redispatches: c.redispatches,
		Failovers:    c.failovers,
	}
	for _, w := range c.workers {
		if c.liveLocked(w, now) {
			st.LiveWorkers++
			st.Leases += w.leases
		}
		st.SingleFlightHits += w.claimHits
		st.Computes += w.computes
	}
	return st
}

// Dispatch runs one encoded optimize request (a planio request document)
// on the cluster and returns the worker's encoded result document.
// Transient failures — an unreachable worker, a drained or overloaded one,
// a lease expiring mid-job — mark the worker dead and re-dispatch to
// another, up to maxDispatchAttempts. Permanent failures (an invalid
// request, the optimization itself failing) return immediately: they would
// fail identically anywhere. With no live workers it returns ErrNoWorkers,
// the caller's cue to fail over to local optimization.
func (c *Coordinator) Dispatch(ctx context.Context, body []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < maxDispatchAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := c.pick()
		if w == nil {
			c.mu.Lock()
			c.failovers++
			c.mu.Unlock()
			if lastErr != nil {
				return nil, fmt.Errorf("%w (after: %v)", ErrNoWorkers, lastErr)
			}
			return nil, ErrNoWorkers
		}
		c.mu.Lock()
		if attempt == 0 {
			c.dispatches++
		} else {
			c.redispatches++
		}
		c.mu.Unlock()
		res, err := c.runOn(ctx, w, body)
		c.dropLease(w.id)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !isTransient(err) {
			return nil, err
		}
		// Transient: presume the worker lost, re-dispatch elsewhere. The
		// worker re-admits itself by re-registering once healthy.
		c.markDead(w.id)
		lastErr = err
	}
	return nil, fmt.Errorf("cluster: dispatch gave up after %d attempts: %w", maxDispatchAttempts, lastErr)
}

// runOn executes one job on one worker: submit, poll, fetch result. A
// worker whose lease lapses while its job runs yields a transient error so
// the job re-dispatches; the abandoned worker's own copy is harmless — if
// it finishes anyway it publishes the same content-addressed plan.
func (c *Coordinator) runOn(ctx context.Context, w *worker, body []byte) ([]byte, error) {
	id, err := c.submit(ctx, w, body)
	if err != nil {
		return nil, err
	}
	timer := time.NewTimer(c.poll)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timer.C:
		}
		if !c.alive(w.id) {
			return nil, transient("cluster: worker %s lease expired with job %s in flight", w.id, id)
		}
		st, err := c.status(ctx, w, id)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case "done":
			return c.result(ctx, w, id)
		case "failed", "canceled":
			if st.Error != nil {
				return nil, st.Error.Err()
			}
			return nil, fmt.Errorf("cluster: job %s on worker %s ended %s", id, w.id, st.State)
		}
		timer.Reset(c.poll)
	}
}

// submit posts the request document to the worker's job API, propagating
// any remaining context deadline the way a direct client would.
func (c *Coordinator) submit(ctx context.Context, w *worker, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set("X-Stubby-Deadline-MS", strconv.FormatInt(ms, 10))
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", transient("cluster: submit to worker %s: %v", w.id, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", transient("cluster: read submit ack from worker %s: %v", w.id, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", classifyHTTP(w.id, "submit", resp.StatusCode, data)
	}
	var ack planio.SubmitResponse
	if err := json.Unmarshal(data, &ack); err != nil || ack.ID == "" {
		return "", transient("cluster: malformed submit ack from worker %s", w.id)
	}
	return ack.ID, nil
}

func (c *Coordinator) status(ctx context.Context, w *worker, id string) (*planio.StatusDoc, error) {
	data, err := c.get(ctx, w, "/v1/jobs/"+url.PathEscape(id), "status")
	if err != nil {
		return nil, err
	}
	var doc planio.StatusDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, transient("cluster: malformed status from worker %s: %v", w.id, err)
	}
	return &doc, nil
}

func (c *Coordinator) result(ctx context.Context, w *worker, id string) ([]byte, error) {
	return c.get(ctx, w, "/v1/jobs/"+url.PathEscape(id)+"/result", "result")
}

func (c *Coordinator) get(ctx context.Context, w *worker, path, op string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, transient("cluster: %s from worker %s: %v", op, w.id, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, transient("cluster: read %s from worker %s: %v", op, w.id, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, classifyHTTP(w.id, op, resp.StatusCode, data)
	}
	return data, nil
}

// classifyHTTP folds a worker's HTTP error into the transient/permanent
// split. 4xx responses are the request's fault (or the job's own terminal
// state) and would repeat on any worker; 5xx and 429 mean this worker
// can't take the job right now — some other one may.
func classifyHTTP(workerID, op string, code int, body []byte) error {
	msg := fmt.Sprintf("cluster: %s on worker %s: HTTP %d", op, workerID, code)
	var env planio.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil {
		if code == http.StatusTooManyRequests || code >= 500 {
			return &transientError{env.Error.Err()}
		}
		return env.Error.Err()
	}
	if code == http.StatusTooManyRequests || code >= 500 {
		return transient("%s", msg)
	}
	return errors.New(msg)
}

// Handle mounts the cluster control plane onto a serving mux.
func (c *Coordinator) Handle(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/cluster/register", c.handleRegister)
	mux.HandleFunc("POST /v1/cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /v1/cluster/workers", c.handleWorkers)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reg, err := planio.DecodeRegisterRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id, ttl := c.Register(reg.URL, reg.ID)
	writeJSON(w, planio.RegisterResponse{ID: id, TTLMS: ttl.Milliseconds()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	hb, err := planio.DecodeHeartbeatRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, planio.HeartbeatResponse{OK: c.Heartbeat(hb.ID, hb.ClaimHits, hb.Computes)})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, planio.WorkersResponse{Workers: c.Workers()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
