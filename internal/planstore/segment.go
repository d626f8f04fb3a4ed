package planstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/stubby-mr/stubby/internal/recordlog"
)

// Segment files hold a flat sequence of records in the "SPLN" format of
// internal/recordlog, of kind recKindPlan, keyed by the record's 128-bit
// content address. A short tail is either an in-progress append (live
// writer) or a torn write (crash); scanning stops at the last valid record
// either way, and only provable corruption freezes a segment.

const (
	recKindPlan = 1

	segPrefix = "seg-"
	segSuffix = ".log"
)

// segmentWriter owns one append-only segment file, holding its exclusive
// flock for the writer's lifetime so other processes can tell a live
// writer from a dead one.
type segmentWriter struct {
	name string
	f    *os.File
	off  int64
}

// openSegmentWriter claims a fresh segment file with O_EXCL, retrying past
// names already taken by concurrent writers.
func openSegmentWriter(segDir string) (*segmentWriter, error) {
	for n := 1; n < 1_000_000; n++ {
		name := fmt.Sprintf("%s%06d%s", segPrefix, n, segSuffix)
		f, err := os.OpenFile(filepath.Join(segDir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("planstore: create segment: %w", err)
		}
		if !recordlog.TryLock(f) {
			// A dead writer's O_EXCL file persists, but its lock does not,
			// so a lock failure here means a live writer somehow shares the
			// name (clock-free counter reuse). Skip it.
			f.Close()
			continue
		}
		return &segmentWriter{name: name, f: f}, nil
	}
	return nil, errors.New("planstore: segment namespace exhausted")
}

// append writes one record, fdatasyncs it, and returns the record's
// starting offset.
func (w *segmentWriter) append(addr Address, payload []byte) (int64, error) {
	key := addr.key()
	off := w.off
	n, err := recordlog.Plan.Write(w.f, recKindPlan, key[:], payload)
	if err != nil {
		// The tail is now indeterminate; reopen-time recovery (or a reader
		// hitting the bad CRC) handles it. Keep off honest for retries.
		if pos, serr := w.f.Seek(0, io.SeekCurrent); serr == nil {
			w.off = pos
		}
		return 0, err
	}
	w.off += int64(n)
	if err := w.f.Sync(); err != nil {
		return 0, err
	}
	return off, nil
}

// close releases the flock and removes the segment entirely when it never
// received a record (so idle replicas don't litter the directory).
func (w *segmentWriter) close() error {
	empty := w.off == 0
	recordlog.Unlock(w.f)
	err := w.f.Close()
	if empty {
		_ = os.Remove(filepath.Join(filepath.Dir(w.f.Name()), w.name))
	}
	return err
}

// scannedRec is one valid record found by scanRecords.
type scannedRec struct {
	addr Address
	off  int64
	n    int
}

// scanRecords reads records from off to the end of the segment. It returns
// the offset just past the last valid record, whether provable corruption
// was found, and the records themselves. A short tail is a live writer
// mid-append, not corruption, and the returned offset lets a later scan
// resume where this one stopped.
func scanRecords(path string, off int64) (int64, bool, []scannedRec, error) {
	f, err := os.Open(path)
	if err != nil {
		return off, false, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return off, false, nil, err
	}
	var recs []scannedRec
	next, corrupt := recordlog.Plan.Scan(f, off, fi.Size(), func(r recordlog.Record) bool {
		recs = append(recs, scannedRec{addr: addressOf(r.Key), off: r.Off, n: len(r.Payload)})
		return true
	})
	return next, corrupt, recs, nil
}

// readRecordPayload re-reads and re-verifies one record's payload. The
// address and CRC are both checked, so a stale index entry (or disk rot)
// reads as absence, never as a wrong document.
func readRecordPayload(path string, off int64, n int, want Address) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	key := want.key()
	return recordlog.Plan.Read(f, off, n, key[:])
}
