package stubby

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
)

// Client speaks the stubbyd wire protocol: it submits OptimizeRequests as
// versioned JSON documents, polls status, streams typed events, cancels,
// and retrieves results. Errors reconstruct the server's *Error taxonomy,
// so errors.Is(err, ErrKindOverloaded) works identically to in-process
// Submit. A Client is safe for concurrent use.
//
// Plans travel as black boxes (stage names, no function bodies): the
// Result.Plan a Client returns carries every annotation and can be costed,
// compared, and re-optimized, but not executed — exactly the paper's
// Figure 2 deployment, where the optimizer service never sees user code.
type Client struct {
	base  string
	hc    *http.Client
	retry *RetryPolicy
	clientCounters
}

// ClientOption configures a Client under construction.
type ClientOption func(*Client)

// WithHTTPClient replaces the underlying *http.Client (default:
// http.DefaultClient). Use it to set timeouts, transports, or tracing.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// NewClient builds a client for the stubbyd server at baseURL (e.g.
// "http://localhost:8080").
func NewClient(baseURL string, opts ...ClientOption) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, stubbyerr.WithKind(stubbyerr.KindInvalid, "client", "", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, stubbyerr.New(stubbyerr.KindInvalid, "client", "", "",
			"base URL %q must be http or https", baseURL)
	}
	c := &Client{base: strings.TrimRight(u.String(), "/"), hc: http.DefaultClient}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// decodeHTTPError turns a non-2xx response into the server's structured
// error. Bodies that are not error envelopes degrade to ErrKindInternal.
func decodeHTTPError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env planio.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil {
		return env.Error.Err()
	}
	return stubbyerr.New(stubbyerr.KindInternal, "http", "", "",
		"%s: %s", resp.Status, strings.TrimSpace(string(body)))
}

func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, stubbyerr.WithKind(stubbyerr.KindInvalid, "http", "", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's deadline so the server can bound the job's
	// execution instead of computing a plan nobody is waiting for.
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(deadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	c.requests.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, stubbyerr.WithKind(stubbyerr.KindUnavailable, "http", "", err)
	}
	return resp, nil
}

// ServiceStats is a stubbyd server's /statsz snapshot: queue occupancy
// plus the counters of the serving session's optional subsystems.
// EstimateCache and PlanStore are nil when the server runs without them.
type ServiceStats struct {
	// Status is "ok", or "draining" after shutdown began.
	Status string
	// Workers/QueueDepth describe the worker pool and admission bound;
	// Queued/Busy are point-in-time occupancy.
	Workers    int
	QueueDepth int
	Queued     int
	Busy       int
	// EstimateCache carries the estimate cache's counters, when attached.
	EstimateCache *EstimateCacheStats
	// PlanStore carries the plan store's counters, when attached.
	PlanStore *PlanStoreStats
	// ReuseCatalog carries the sub-plan reuse catalog's counters, when
	// attached.
	ReuseCatalog *ReuseCatalogStats
	// Journal carries the durable job journal's counters, when attached.
	Journal *JournalStats
	// Cluster carries the coordinator's cluster counters, when the server
	// runs with WithCoordinator.
	Cluster *ClusterStats
}

// Stats fetches the server's /statsz counters.
func (c *Client) Stats(ctx context.Context) (*ServiceStats, error) {
	var st *ServiceStats
	err := c.doRetry(ctx, http.MethodGet, "/statsz", nil, func(resp *http.Response) error {
		var doc statszDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			return stubbyerr.WithKind(stubbyerr.KindInternal, "stats", "", err)
		}
		st = &ServiceStats{
			Status:        doc.Status,
			Workers:       doc.Queue.Workers,
			QueueDepth:    doc.Queue.Depth,
			Queued:        doc.Queue.Queued,
			Busy:          doc.Queue.Busy,
			EstimateCache: doc.EstCache,
			PlanStore:     doc.PlanStore,
			ReuseCatalog:  doc.ReuseCatalog,
			Journal:       doc.Journal,
			Cluster:       doc.Cluster,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Submit encodes the request as a wire document, posts it, and returns a
// remote job bound to the server-assigned ID. Overload and drain
// rejections surface as ErrKindOverloaded / ErrKindUnavailable.
func (c *Client) Submit(ctx context.Context, req OptimizeRequest) (*RemoteJob, error) {
	if req.Workflow == nil {
		return nil, stubbyerr.New(stubbyerr.KindInvalid, "submit", "", "", "nil workflow")
	}
	body, err := planio.EncodeRequest(&planio.Request{
		Planner:            req.Planner,
		Seed:               req.Seed,
		DisableIncremental: req.DisableIncremental,
		Cluster:            req.Cluster,
		Plan:               req.Workflow,
	})
	if err != nil {
		return nil, stubbyerr.WithKind(stubbyerr.KindInvalid, "submit", req.Workflow.Name, err)
	}
	var ack planio.SubmitResponse
	err = c.doRetry(ctx, http.MethodPost, "/v1/jobs", body, func(resp *http.Response) error {
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			return stubbyerr.WithKind(stubbyerr.KindInternal, "submit", req.Workflow.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &RemoteJob{c: c, id: ack.ID, workflow: req.Workflow.Name}, nil
}

// Job binds a RemoteJob to an already-known ID (e.g. persisted from an
// earlier Submit). The binding is not verified until the first call.
func (c *Client) Job(id string) *RemoteJob { return &RemoteJob{c: c, id: id} }

// JobStatus is a remote job's status snapshot.
type JobStatus struct {
	ID       string
	Workflow string
	Progress Progress
	// Err is the structured failure/cancellation cause for terminal
	// non-Done states, nil otherwise.
	Err error
}

// State returns the snapshot's lifecycle state.
func (s *JobStatus) State() JobState { return s.Progress.State }

// RemoteJob is the client-side handle to a job on a stubbyd server: the
// over-the-wire counterpart of OptimizeHandle. Methods take a context
// because every one is an HTTP call. A RemoteJob is safe for concurrent
// use — all fields are set at construction and never mutated (a job
// rebound with Client.Job carries no workflow name; its errors omit it).
type RemoteJob struct {
	c        *Client
	id       string
	workflow string
}

// ID returns the server-assigned job ID.
func (j *RemoteJob) ID() string { return j.id }

// Status fetches the job's state and progress snapshot.
func (j *RemoteJob) Status(ctx context.Context) (*JobStatus, error) {
	var st *JobStatus
	err := j.c.doRetry(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(j.id), nil,
		func(resp *http.Response) error {
			var derr error
			st, derr = j.decodeStatus(resp.Body)
			return derr
		})
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (j *RemoteJob) decodeStatus(r io.Reader) (*JobStatus, error) {
	var doc planio.StatusDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, stubbyerr.WithKind(stubbyerr.KindInternal, "status", j.workflow, err)
	}
	st, err := parseJobState(doc.State)
	if err != nil {
		return nil, err
	}
	return &JobStatus{
		ID:       doc.ID,
		Workflow: doc.Workflow,
		Progress: Progress{State: st, Units: doc.Units, Subplans: doc.Subplans,
			Improvements: doc.Improvements, BestCost: doc.BestCost},
		Err: doc.Error.Err(),
	}, nil
}

// Cancel requests cancellation server-side (see OptimizeHandle.Cancel for
// the semantics) and returns the status observed after the request.
// Cancellation is idempotent, so retrying it is safe.
func (j *RemoteJob) Cancel(ctx context.Context) (*JobStatus, error) {
	var st *JobStatus
	err := j.c.doRetry(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(j.id)+"/cancel", nil,
		func(resp *http.Response) error {
			var derr error
			st, derr = j.decodeStatus(resp.Body)
			return derr
		})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Events streams the job's typed events: the server replays the full
// stream from submission, then follows live; the channel closes after the
// terminal StateChangedEvent or when ctx ends. Unknown event types from a
// newer server are skipped. Under a retry policy the stream is resumable:
// a dropped connection reconnects with the server's ?from= cursor (the
// per-job event sequence number — the count of complete NDJSON lines
// received so far) and the replayed suffix is exactly the missed events,
// with no duplicates and no gaps.
func (j *RemoteJob) Events(ctx context.Context) (<-chan Event, error) {
	resp, err := j.connectEvents(ctx, 0)
	if err != nil {
		return nil, err
	}
	ch := make(chan Event)
	if j.c.retry == nil {
		go j.pumpEvents(ctx, resp, ch)
	} else {
		go j.pumpResumable(ctx, resp, ch)
	}
	return ch, nil
}

// connectEvents opens the job's event stream at the given cursor,
// retrying transient connect failures under the retry policy (the stream
// itself, once open, is the caller's to drain).
func (j *RemoteJob) connectEvents(ctx context.Context, from int) (*http.Response, error) {
	path := "/v1/jobs/" + url.PathEscape(j.id) + "/events"
	if from > 0 {
		path += "?from=" + strconv.Itoa(from)
	}
	attempts := 1
	if j.c.retry != nil {
		attempts = j.c.retry.MaxAttempts
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			j.c.retries.Add(1)
		}
		var retryAfter time.Duration
		resp, err := j.c.do(ctx, http.MethodGet, path, nil)
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				return resp, nil
			}
			retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
			err = decodeHTTPError(resp)
			resp.Body.Close()
		}
		lastErr = err
		if j.c.retry == nil || attempt == attempts-1 || ctx.Err() != nil || !j.c.retryable(err) {
			return nil, lastErr
		}
		if !sleepCtx(ctx, j.c.retryDelay(attempt, retryAfter)) {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// pumpEvents drains one event-stream connection without resume: the
// no-policy behavior, where any drop simply ends the channel.
func (j *RemoteJob) pumpEvents(ctx context.Context, resp *http.Response, ch chan<- Event) {
	defer close(ch)
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var doc eventDoc
		if err := json.Unmarshal(line, &doc); err != nil {
			continue
		}
		ev, ok := doc.typed()
		if !ok {
			continue
		}
		select {
		case ch <- ev:
		case <-ctx.Done():
			return
		}
	}
}

// pumpResumable drains the event stream across reconnects, resuming each
// time at the cursor of complete lines already consumed. It stops at the
// job's terminal event (stream complete), on ctx end, or after
// MaxAttempts consecutive reconnects that made no progress (e.g. the job
// was recovered by a restarted server whose rebuilt event log is shorter
// than our cursor — Wait then falls back to status polling).
func (j *RemoteJob) pumpResumable(ctx context.Context, resp *http.Response, ch chan<- Event) {
	defer close(ch)
	cursor, stale := 0, 0
	for {
		read, terminal := j.drainStream(ctx, resp, ch)
		cursor += read
		if terminal || ctx.Err() != nil {
			return
		}
		if read == 0 {
			if stale++; stale >= j.c.retry.MaxAttempts {
				return
			}
		} else {
			stale = 0
		}
		next, err := j.connectEvents(ctx, cursor)
		if err != nil {
			return
		}
		j.c.resumes.Add(1)
		resp = next
	}
}

// drainStream consumes one event-stream connection, forwarding decoded
// events. It returns how many complete lines it consumed — the cursor
// advance; the server's per-job event sequence is exactly the NDJSON line
// index — and whether the stream reached the job's terminal event.
// A line that fails to unmarshal is a torn tail from a mid-line cut: it is
// not counted, so the resume replays it whole.
func (j *RemoteJob) drainStream(ctx context.Context, resp *http.Response, ch chan<- Event) (lines int, terminal bool) {
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var doc eventDoc
		if err := json.Unmarshal(line, &doc); err != nil {
			return lines, false
		}
		lines++
		ev, ok := doc.typed()
		if !ok {
			// Unknown event type from a newer server: skipped, but it still
			// occupies a slot in the server's sequence, so it counts.
			continue
		}
		select {
		case ch <- ev:
		case <-ctx.Done():
			return lines, false
		}
		if st, ok := ev.(StateChangedEvent); ok && st.State.Terminal() {
			terminal = true
		}
	}
	return lines, terminal
}

// Result fetches the finished job's result document and decodes it,
// verifying the plan fingerprint the server stamped. An unfinished job
// yields ErrKindConflict; a failed or canceled one yields its structured
// error.
func (j *RemoteJob) Result(ctx context.Context) (*Result, error) {
	var res *Result
	err := j.c.doRetry(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(j.id)+"/result", nil,
		func(resp *http.Response) error {
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				// A cut mid-body is transient: the journal-era server will
				// serve the identical document again.
				return stubbyerr.WithKind(stubbyerr.KindUnavailable, "result", j.workflow, err)
			}
			if res, err = decodeResult(body, nil); err != nil {
				return stubbyerr.WithKind(stubbyerr.KindInternal, "result", j.workflow, err)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Wait blocks until the job is terminal and returns its outcome, following
// the event stream (one long poll, no timer loop). Like
// OptimizeHandle.Wait: the Result for StateDone, the structured error for
// StateFailed/StateCanceled, ctx's error if it ends first. Under a retry
// policy Wait survives connection drops and even a server crash/restart:
// the event stream resumes at its cursor, and if the stream cannot be
// resumed Wait degrades to polling Status until the job lands.
func (j *RemoteJob) Wait(ctx context.Context) (*Result, error) {
	events, err := j.Events(ctx)
	if err != nil {
		return nil, err
	}
	var terminal *StateChangedEvent
	for ev := range events {
		if sc, ok := ev.(StateChangedEvent); ok && sc.State.Terminal() {
			terminal = &sc
			break
		}
	}
	if terminal != nil {
		return j.finish(ctx, terminal.State, terminal.Err, terminal.Workflow)
	}
	// Stream ended without a terminal transition: ctx expired or the
	// connection dropped mid-flight.
	if err := ctx.Err(); err != nil {
		return nil, stubbyerr.From("wait", j.workflow, err)
	}
	if j.c.retry == nil {
		return nil, stubbyerr.New(stubbyerr.KindUnavailable, "wait", j.workflow, "",
			"event stream for job %s ended before the job finished", j.id)
	}
	// Under a retry policy the stream giving out is not the end: the job is
	// still running somewhere (possibly re-enqueued by a restarted server
	// whose rebuilt event log is shorter than our cursor). Poll status until
	// terminal, riding out transient unavailability.
	for {
		st, err := j.Status(ctx)
		if err != nil {
			if !j.c.retryable(err) {
				return nil, err
			}
		} else if st.State().Terminal() {
			return j.finish(ctx, st.State(), st.Err, st.Workflow)
		}
		if !sleepCtx(ctx, 50*time.Millisecond) {
			return nil, stubbyerr.From("wait", j.workflow, ctx.Err())
		}
	}
}

// finish converts a terminal state into Wait's outcome: the Result for
// Done, the structured cause for Failed/Canceled.
func (j *RemoteJob) finish(ctx context.Context, state JobState, cause error, workflow string) (*Result, error) {
	switch state {
	case StateDone:
		return j.Result(ctx)
	case StateCanceled:
		return nil, stubbyerr.WithKind(stubbyerr.KindCanceled, "optimize", workflow,
			fmt.Errorf("job %s canceled: %w", j.id, context.Canceled))
	default: // StateFailed
		if cause != nil {
			return nil, cause
		}
		return nil, stubbyerr.New(stubbyerr.KindInternal, "optimize", workflow, "",
			"job %s failed", j.id)
	}
}
