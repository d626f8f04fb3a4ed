package service

// journal.go implements the durable job journal behind a crash-safe
// stubbyd: an append-only, CRC-checked log of every submission's request
// document and subsequent lifecycle transitions. Reopening the journal
// after a crash yields the set of jobs that were admitted but never
// reached a terminal state, so the server can re-enqueue exactly those —
// completed jobs are never resurrected, canceled jobs stay canceled, and
// re-executed jobs complete idempotently through the plan store.
//
// # On-disk layout
//
// A journal directory holds journal.log, a record log in the "SJNL"
// format of internal/recordlog (which describes the frame, the lock file
// and the rewrite), whose payloads are JSON JournalRecords of kind
// jrnKindSubmit or jrnKindState. Reopening replays the records up to the
// first torn or corrupt one, then compacts the survivors into a fresh log:
// that physically drops the damage and the records of jobs that already
// finished, so the journal stays proportional to the in-flight set rather
// than to history.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/stubby-mr/stubby/internal/recordlog"
)

const (
	jrnKindSubmit = 1
	jrnKindState  = 2

	jrnFile = "journal.log"

	// Live-compaction defaults (SetCompactionThresholds overrides): compact
	// once this many jobs reached a terminal state since the last
	// compaction, or once the log grows past this many bytes with anything
	// droppable in it. Reopen-only compaction let a long-lived server's log
	// grow with history instead of with the in-flight set.
	defaultCompactEvery = 256
	defaultCompactBytes = 8 << 20
)

// JournalRecord is the JSON payload of one journal record. Submit records
// carry the request document and, when the submitter propagated one, the
// absolute deadline; state records carry the transition.
type JournalRecord struct {
	// ID is the job's server-assigned identifier.
	ID string `json:"id"`
	// State is the transition a state record logs ("running", "done",
	// "failed", "canceled"); empty on submit records.
	State string `json:"state,omitempty"`
	// Doc is the verbatim optimize-request document of a submit record.
	Doc json.RawMessage `json:"doc,omitempty"`
	// DeadlineUnixMS is the job's absolute deadline in Unix milliseconds
	// (0 = none), journaled so a recovered job keeps its deadline.
	DeadlineUnixMS int64 `json:"deadlineUnixMS,omitempty"`
}

// IncompleteJob is one journaled job that never reached a terminal state:
// the unit of restart recovery.
type IncompleteJob struct {
	// ID is the job's original identifier, preserved across the restart so
	// clients polling it reconnect to the recovered job.
	ID string
	// Doc is the submission's verbatim request document.
	Doc []byte
	// DeadlineUnixMS is the journaled absolute deadline (0 = none).
	DeadlineUnixMS int64
}

// JournalStats is a point-in-time snapshot of journal activity. Counters
// are cumulative since Open. Its JSON form is the journal section of
// /statsz.
type JournalStats struct {
	// Submits / Transitions count records appended by kind.
	Submits     uint64 `json:"submits"`
	Transitions uint64 `json:"transitions"`
	// Recovered is how many incomplete jobs the reopening scan yielded.
	Recovered int `json:"recovered"`
	// Compacted is how many stale records (of already-terminal jobs) the
	// reopening compaction dropped.
	Compacted int `json:"compacted"`
	// Compactions counts live (threshold-triggered) compactions performed
	// since Open; the reopening compaction is not included.
	Compactions uint64 `json:"compactions,omitempty"`
	// TornBytes is how many trailing bytes the reopening scan discarded as
	// a torn or corrupt tail.
	TornBytes int64 `json:"tornBytes"`
	// BytesWritten counts record bytes appended (headers included).
	BytesWritten uint64 `json:"bytesWritten"`
	// Errors counts append/sync failures; the service keeps running when
	// it rises, with correspondingly weaker crash-recovery guarantees.
	Errors uint64 `json:"errors"`
}

// Journal is a single-writer durable job journal. All methods are safe
// for concurrent use; Append* calls from concurrent submissions serialize
// on an internal mutex, preserving a total record order.
type Journal struct {
	dir  string
	sync bool

	mu  sync.Mutex
	log *recordlog.Log

	// Live-compaction state, all guarded by mu: the in-flight jobs' submit
	// records (what a compaction must preserve), how much droppable history
	// has accumulated, and the thresholds that trigger a rewrite.
	live          map[string]*liveJob
	nextOrder     int
	recordsInLog  int // records in the log file (live + droppable)
	terminalSince int // terminal transitions since the last compaction
	compactEvery  int
	compactBytes  int64

	submits      atomic.Uint64
	transitions  atomic.Uint64
	bytesWritten atomic.Uint64
	errs         atomic.Uint64
	compactions  atomic.Uint64
	recovered    int
	compacted    int
	tornBytes    int64
}

// liveJob is the retained submit record of one not-yet-terminal job.
type liveJob struct {
	doc      json.RawMessage
	deadline int64
	order    int
}

// OpenJournal opens (creating if needed) the journal rooted at dir,
// recovers its record of in-flight jobs, and compacts the log. The
// returned incomplete jobs are in original submission order. The journal
// takes an exclusive flock on dir/journal.lock for its lifetime; a second
// live opener fails rather than interleaving appends.
func OpenJournal(dir string) (*Journal, []IncompleteJob, error) {
	j := &Journal{dir: dir, sync: true,
		live:         make(map[string]*liveJob),
		compactEvery: defaultCompactEvery,
		compactBytes: defaultCompactBytes,
	}
	// Replay the records into the live set, as the appends built it.
	log, torn, err := recordlog.Open(filepath.Join(dir, jrnFile), recordlog.Journal, func(r recordlog.Record) bool {
		var rec JournalRecord
		if json.Unmarshal(r.Payload, &rec) != nil || rec.ID == "" {
			return false
		}
		j.recordsInLog++
		j.track(r.Kind, &rec)
		return true
	})
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j.log, j.tornBytes, j.recovered = log, torn, len(j.live)
	// Compact: rewrite only the incomplete jobs' submit records. This is
	// also what physically truncates a torn tail.
	ids, err := j.compactLocked()
	if err != nil {
		log.Close()
		return nil, nil, fmt.Errorf("journal: compact: %w", err)
	}
	incomplete := make([]IncompleteJob, len(ids))
	for i, id := range ids {
		incomplete[i] = IncompleteJob{ID: id, Doc: j.live[id].doc, DeadlineUnixMS: j.live[id].deadline}
	}
	return j, incomplete, nil
}

// track folds one record into the live set: a submit adds its job, a
// terminal transition of a live job removes it.
func (j *Journal) track(kind byte, rec *JournalRecord) {
	if kind == jrnKindSubmit {
		if _, ok := j.live[rec.ID]; !ok {
			j.live[rec.ID] = &liveJob{doc: rec.Doc, deadline: rec.DeadlineUnixMS, order: j.nextOrder}
			j.nextOrder++
		}
		return
	}
	if _, ok := j.live[rec.ID]; ok {
		if st, err := ParseState(rec.State); err == nil && st.Terminal() {
			delete(j.live, rec.ID)
			j.terminalSince++
		}
	}
}

// append writes one framed record and (by default) fdatasyncs it, so an
// acknowledged submission survives an immediate SIGKILL.
func (j *Journal) append(kind byte, rec *JournalRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		j.errs.Add(1)
		return fmt.Errorf("journal: encode: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n, err := j.log.Append(kind, payload, j.sync)
	j.bytesWritten.Add(uint64(n))
	if err != nil {
		j.errs.Add(1)
		return fmt.Errorf("journal: append: %w", err)
	}
	j.recordsInLog++
	j.track(kind, rec)
	if j.shouldCompactLocked() {
		if _, err := j.compactLocked(); err != nil {
			j.errs.Add(1)
		} else {
			j.compactions.Add(1)
		}
	}
	return nil
}

// shouldCompactLocked decides whether the log has accumulated enough
// droppable history to rewrite. Callers hold j.mu. The recordsInLog guard
// keeps a log of purely live submit records from rewriting itself on every
// append once past the byte threshold — compaction must be able to shrink.
func (j *Journal) shouldCompactLocked() bool {
	if j.recordsInLog <= len(j.live) {
		return false
	}
	return j.terminalSince >= j.compactEvery ||
		(j.compactBytes > 0 && j.log.Size() >= j.compactBytes)
}

// compactLocked rewrites the log to just the live jobs' submit records, in
// submission order, and returns their IDs in that order. The rewrite is
// crash-safe and leaves journal.lock (and the flock on it) untouched; on
// failure the current log stays appendable, or is closed if the fresh one
// could not be reopened. Callers hold j.mu (or own j, as OpenJournal does).
func (j *Journal) compactLocked() ([]string, error) {
	ids := make([]string, 0, len(j.live))
	for id := range j.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return j.live[ids[a]].order < j.live[ids[b]].order })
	payloads := make([][]byte, len(ids))
	for i, id := range ids {
		lj := j.live[id]
		p, err := json.Marshal(&JournalRecord{ID: id, Doc: lj.doc, DeadlineUnixMS: lj.deadline})
		if err != nil {
			return nil, err
		}
		payloads[i] = p
	}
	if err := j.log.Rewrite(jrnKindSubmit, payloads); err != nil {
		return nil, err
	}
	j.compacted += j.recordsInLog - len(ids)
	j.recordsInLog = len(ids)
	j.terminalSince = 0
	return ids, nil
}

// SetCompactionThresholds tunes live compaction: the log is rewritten to
// just the in-flight submit records once terminalEvery jobs reached a
// terminal state since the last compaction, or once the log exceeds
// maxBytes with droppable records in it. terminalEvery <= 0 restores the
// default; maxBytes <= 0 disables the byte trigger.
func (j *Journal) SetCompactionThresholds(terminalEvery int, maxBytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalEvery <= 0 {
		terminalEvery = defaultCompactEvery
	}
	j.compactEvery = terminalEvery
	j.compactBytes = maxBytes
}

// AppendSubmit journals one admitted submission: its server-assigned ID,
// verbatim request document, and (optional) absolute deadline.
func (j *Journal) AppendSubmit(id string, doc []byte, deadlineUnixMS int64) error {
	err := j.append(jrnKindSubmit, &JournalRecord{ID: id, Doc: doc, DeadlineUnixMS: deadlineUnixMS})
	if err == nil {
		j.submits.Add(1)
	}
	return err
}

// AppendState journals one lifecycle transition.
func (j *Journal) AppendState(id string, state State) error {
	err := j.append(jrnKindState, &JournalRecord{ID: id, State: state.String()})
	if err == nil {
		j.transitions.Add(1)
	}
	return err
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	compacted := j.compacted
	j.mu.Unlock()
	return JournalStats{
		Submits:      j.submits.Load(),
		Transitions:  j.transitions.Load(),
		Recovered:    j.recovered,
		Compacted:    compacted,
		Compactions:  j.compactions.Load(),
		TornBytes:    j.tornBytes,
		BytesWritten: j.bytesWritten.Load(),
		Errors:       j.errs.Load(),
	}
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// SetSync toggles per-append fdatasync (on by default). Benchmarks may
// turn it off; crash recovery then depends on the OS having flushed.
func (j *Journal) SetSync(sync bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sync = sync
}

// Close releases the log and its lock. Appends after Close fail and count
// as Errors.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
