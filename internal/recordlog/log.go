package recordlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ErrClosed is returned by appends to a closed Log.
var ErrClosed = errors.New("recordlog: log is closed")

// Log is a single-writer record log over one file, for formats without a
// key. It is not safe for concurrent use; the stores serialize on their
// own mutex.
type Log struct {
	format Format
	path   string
	lock   *os.File // name.lock, held for the log's lifetime
	f      *os.File // the log, opened for append; nil once closed
	size   int64
}

// Open locks and opens (creating if needed) the log at path, a name.log
// file, and scans it, calling fn for each valid record as Format.Scan does.
// It returns how many trailing bytes the scan left unread: a torn or
// corrupt tail. Records appended after such a tail would be unreachable by
// the next scan, so a caller Rewrites before appending, which drops it. A
// second live opener of the same path fails instead of interleaving
// appends.
func Open(path string, format Format, fn func(Record) bool) (*Log, int64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, 0, err
	}
	lock, err := os.OpenFile(strings.TrimSuffix(path, ".log")+".lock", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if !TryLock(lock) {
		lock.Close()
		return nil, 0, fmt.Errorf("%s is held by a live writer", filepath.Dir(path))
	}
	l := &Log{format: format, path: path, lock: lock}
	if l.f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644); err != nil {
		l.Close()
		return nil, 0, err
	}
	fi, err := l.f.Stat()
	if err != nil {
		l.Close()
		return nil, 0, err
	}
	l.size = fi.Size()
	next, _ := format.Scan(l.f, 0, l.size, fn)
	return l, l.size - next, nil
}

// Size is the log file's current size in bytes.
func (l *Log) Size() int64 { return l.size }

// Append writes one record in a single write and, when sync is set,
// fsyncs it. It returns the bytes written.
func (l *Log) Append(kind byte, payload []byte, sync bool) (int, error) {
	if l.f == nil {
		return 0, ErrClosed
	}
	n, err := l.format.Write(l.f, kind, nil, payload)
	l.size += int64(n)
	if err == nil && sync {
		err = l.f.Sync()
	}
	return n, err
}

// Rewrite replaces the log with records of the given kind carrying
// payloads, in order: it writes them to name.log.tmp, fsyncs it, renames it
// over the log and reopens for append. A failure before the rename leaves
// the current log in place and appendable; a failure to reopen after it
// closes the log, so later appends fail rather than land on the old inode.
func (l *Log) Rewrite(kind byte, payloads [][]byte) error {
	tmp := l.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var size int64
	for _, p := range payloads {
		n, werr := l.format.Write(tf, kind, nil, p)
		if err = werr; err != nil {
			break
		}
		size += int64(n)
	}
	if err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if l.f != nil {
		l.f.Close()
	}
	if l.f, err = os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return err // l.f is nil: the log is closed
	}
	l.size = size
	return nil
}

// Close closes the log and releases its lock. It is idempotent.
func (l *Log) Close() error {
	var err error
	if l.f != nil {
		err = l.f.Close()
		l.f = nil
	}
	if l.lock != nil {
		Unlock(l.lock)
		l.lock.Close()
		l.lock = nil
	}
	return err
}
