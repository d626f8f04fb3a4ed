// Package recordlog is the one record format behind Stubby's durable
// stores: the job journal (internal/service), the reuse catalog
// (internal/catalog) and the plan store's segments (internal/planstore).
// Each store appends framed records to a file and, on reopen, scans the
// file back up to the last valid record.
//
// # Record frame
//
// Every record is
//
//	magic   uint32         Format.Magic ("SJNL", "SCAT" or "SPLN")
//	kind    uint8          1..Format.Kinds, store-defined
//	key     [KeyLen]byte   fixed-length key (the plan store's 128-bit
//	                       content address; absent in the other two)
//	length  uint32         payload byte count, at most MaxPayload
//	crc     uint32         CRC-32C (Castagnoli) over the payload
//	payload [length]byte
//
// with all integers big-endian. A record is valid when the magic and kind
// match, the whole payload is present, and the CRC verifies. Scanning stops
// at the first record that is not valid, and tells the two reasons apart: a
// short tail (the header or payload runs past the end) is what a crash
// mid-append or a live writer mid-append leaves, while a bad magic, kind,
// length or CRC on bytes that are all present is provable corruption.
//
// # Log files
//
// Log is the single-writer file the journal and the catalog keep:
//
//	dir/
//	  name.log       the records, appended by one writer
//	  name.log.tmp   rewrite scratch, published over name.log by rename
//	  name.lock      held (flock) by the writer for its lifetime
//
// The lock lives in its own file, which a rewrite never renames over, so
// its inode and the flock on it stay put while the log is replaced. A
// rewrite writes the surviving records to the temp file, fsyncs it and
// renames it into place, so a crash at any point leaves either the old or
// the new log whole. The plan store frames its segments with Format but
// manages the files itself: many writers share its directory, each with
// its own segment, and each segment is its own lock.
package recordlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxPayload bounds a record's payload. It is a sanity bound for the
// length field: real records are a few KB to a few MB.
const MaxPayload = 1 << 30

// The three stores' formats.
var (
	Journal = Format{Magic: 0x534a4e4c, Kinds: 2}             // "SJNL": submit, state
	Catalog = Format{Magic: 0x53434154, Kinds: 1}             // "SCAT": entry
	Plan    = Format{Magic: 0x53504c4e, Kinds: 1, KeyLen: 16} // "SPLN": plan, keyed by address
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C a record frame carries for payload.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, crcTable) }

// Format is one store's record layout.
type Format struct {
	// Magic opens every record.
	Magic uint32
	// Kinds is the highest valid kind byte; kinds run from 1.
	Kinds byte
	// KeyLen is the length of the fixed key after the kind byte (0: none).
	KeyLen int
}

// HeaderSize is the byte count of a record's frame before the payload.
func (f Format) HeaderSize() int64 { return int64(13 + f.KeyLen) }

// Frame returns the framed record. key must be KeyLen bytes long.
func (f Format) Frame(kind byte, key, payload []byte) []byte {
	h := f.HeaderSize()
	buf := make([]byte, h+int64(len(payload)))
	binary.BigEndian.PutUint32(buf[0:], f.Magic)
	buf[4] = kind
	copy(buf[5:5+f.KeyLen], key)
	binary.BigEndian.PutUint32(buf[5+f.KeyLen:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[9+f.KeyLen:], Checksum(payload))
	copy(buf[h:], payload)
	return buf
}

// Write frames one record and writes it to w in a single Write call,
// returning the bytes written.
func (f Format) Write(w io.Writer, kind byte, key, payload []byte) (int, error) {
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("recordlog: record of %d bytes exceeds limit", len(payload))
	}
	return w.Write(f.Frame(kind, key, payload))
}

// Record is one valid record found by Scan.
type Record struct {
	// Kind is the record's kind byte.
	Kind byte
	// Key is the record's fixed key. It aliases Scan's header buffer and is
	// valid only during the callback.
	Key []byte
	// Off is the offset of the record's header.
	Off int64
	// Payload is the record's payload, freshly allocated and owned by the
	// callback.
	Payload []byte
}

// Scan reads records from r in the byte range [off, end), calling fn for
// each valid one; fn returns false to stop the scan before that record.
// Scan returns the offset just past the last record accepted and whether
// it stopped at provable corruption (or at a record fn refused). A short
// tail is not corruption: next then marks where a later scan can resume
// once the tail completes.
func (f Format) Scan(r io.ReaderAt, off, end int64, fn func(Record) bool) (next int64, corrupt bool) {
	h := f.HeaderSize()
	hdr := make([]byte, h)
	for off+h <= end {
		if _, err := r.ReadAt(hdr, off); err != nil {
			return off, false
		}
		if binary.BigEndian.Uint32(hdr) != f.Magic || !f.validKind(hdr[4]) {
			return off, true
		}
		n := int64(binary.BigEndian.Uint32(hdr[5+f.KeyLen:]))
		if n > MaxPayload {
			return off, true
		}
		if off+h+n > end {
			return off, false
		}
		payload := make([]byte, n)
		// An empty payload at the very end may read as EOF; that is no error.
		if _, err := r.ReadAt(payload, off+h); err != nil && n > 0 {
			return off, false
		}
		if Checksum(payload) != binary.BigEndian.Uint32(hdr[9+f.KeyLen:]) {
			return off, true
		}
		if !fn(Record{Kind: hdr[4], Key: hdr[5 : 5+f.KeyLen], Off: off, Payload: payload}) {
			return off, true
		}
		off += h + n
	}
	return off, false
}

// Read reads back the record at off with an n-byte payload in one ReadAt
// and verifies it: magic, kind, key, length and CRC must all match, so a
// stale location (or disk rot) reads as an error, never as wrong bytes.
func (f Format) Read(r io.ReaderAt, off int64, n int, key []byte) ([]byte, error) {
	if n < 0 || n > MaxPayload || off < 0 {
		return nil, errors.New("recordlog: bad record location")
	}
	h := f.HeaderSize()
	buf := make([]byte, h+int64(n))
	if _, err := r.ReadAt(buf, off); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint32(buf) != f.Magic || !f.validKind(buf[4]) {
		return nil, errors.New("recordlog: bad record header")
	}
	if !bytes.Equal(buf[5:5+f.KeyLen], key) {
		return nil, errors.New("recordlog: record key mismatch")
	}
	if binary.BigEndian.Uint32(buf[5+f.KeyLen:]) != uint32(n) {
		return nil, errors.New("recordlog: record length mismatch")
	}
	payload := buf[h:]
	if Checksum(payload) != binary.BigEndian.Uint32(buf[9+f.KeyLen:]) {
		return nil, errors.New("recordlog: record checksum mismatch")
	}
	return payload, nil
}

func (f Format) validKind(k byte) bool { return k >= 1 && k <= f.Kinds }
