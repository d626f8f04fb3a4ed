package recordlog

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// goldens holds one fixed record per store format, as the stores wrote
// them before the frame moved into this package. Directories written then
// must reopen unchanged, so these bytes may never drift.
var goldens = []struct {
	name    string
	format  Format
	kind    byte
	key     []byte
	payload string
	hex     string
}{
	{
		name:    "journal",
		format:  Journal,
		kind:    1,
		payload: `{"id":"job-1","doc":{"n":1},"deadlineUnixMS":1700000000000}`,
		hex: "534a4e4c010000003beea5c0ba7b226964223a226a6f622d31222c22646f63223a7b226e223a317d2c22" +
			"646561646c696e65556e69784d53223a313730303030303030303030307d",
	},
	{
		name:    "catalog",
		format:  Catalog,
		kind:    1,
		payload: `{"fingerprint":"0123456789abcdef0123456789abcdef","dataset":"D1","records":10,"bytes":100,"partitions":2,"storedAtMS":1700000000000}`,
		hex: "534341540100000084ff700c837b2266696e6765727072696e74223a22303132333435363738396162" +
			"6364656630313233343536373839616263646566222c2264617461736574223a224431222c22726563" +
			"6f726473223a31302c226279746573223a3130302c22706172746974696f6e73223a322c2273746f72" +
			"656441744d53223a313730303030303030303030307d",
	},
	{
		name:    "planstore",
		format:  Plan,
		kind:    1,
		key:     []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0xfe, 0xdc, 0xba, 0x98, 0x76, 0x54, 0x32, 0x10},
		payload: `{"plan":"x"}`,
		hex:     "53504c4e010123456789abcdeffedcba98765432100000000c177526947b22706c616e223a2278227d",
	},
}

func TestFormatGoldens(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			want, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := g.format.Write(&buf, g.kind, g.key, []byte(g.payload)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("framed record drifted from the on-disk format:\n got %x\nwant %x", buf.Bytes(), want)
			}
			var recs []Record
			next, corrupt := g.format.Scan(bytes.NewReader(want), 0, int64(len(want)), func(r Record) bool {
				r.Key = append([]byte(nil), r.Key...)
				recs = append(recs, r)
				return true
			})
			if next != int64(len(want)) || corrupt || len(recs) != 1 {
				t.Fatalf("scan = next %d corrupt %v, %d records; want the whole golden record", next, corrupt, len(recs))
			}
			if r := recs[0]; r.Kind != g.kind || !bytes.Equal(r.Key, g.key) || string(r.Payload) != g.payload {
				t.Fatalf("scanned kind %d key %x payload %q", r.Kind, r.Key, r.Payload)
			}
			got, err := g.format.Read(bytes.NewReader(want), 0, len(g.payload), g.key)
			if err != nil || string(got) != g.payload {
				t.Fatalf("read back %q, %v", got, err)
			}
		})
	}
}

// testLog frames a few records of f, the last with an empty payload, and
// returns the bytes with the end offset of each record.
func testLog(f Format) (data []byte, ends []int64) {
	key := bytes.Repeat([]byte{0xa5}, f.KeyLen)
	for i, p := range []string{`{"a":1}`, `{"bb":"two"}`, ""} {
		data = append(data, f.Frame(byte(1+i%int(f.Kinds)), key, []byte(p))...)
		ends = append(ends, int64(len(data)))
	}
	return data, ends
}

func scanAll(f Format, data []byte) (next int64, corrupt bool, n int) {
	next, corrupt = f.Scan(bytes.NewReader(data), 0, int64(len(data)), func(Record) bool {
		n++
		return true
	})
	return next, corrupt, n
}

// TestScanCutAtEveryOffset: a log cut anywhere — a crash mid-append, or a
// live writer seen mid-record — scans back to exactly its whole-record
// prefix, and the cut is a short tail, never corruption.
func TestScanCutAtEveryOffset(t *testing.T) {
	for _, g := range goldens {
		data, ends := testLog(g.format)
		for cut := 0; cut <= len(data); cut++ {
			var wantNext int64
			wantRecs := 0
			for _, e := range ends {
				if e <= int64(cut) {
					wantNext, wantRecs = e, wantRecs+1
				}
			}
			next, corrupt, n := scanAll(g.format, data[:cut])
			if next != wantNext || n != wantRecs || corrupt {
				t.Fatalf("%s cut at %d: next %d, %d records, corrupt %v; want next %d, %d records, not corrupt",
					g.name, cut, next, n, corrupt, wantNext, wantRecs)
			}
		}
	}
}

// TestScanCorruption: a flipped CRC, payload or magic byte on a record
// that is all present is provable corruption, and the scan stops at the
// record before it.
func TestScanCorruption(t *testing.T) {
	for _, g := range goldens {
		data, ends := testLog(g.format)
		h := g.format.HeaderSize()
		for name, at := range map[string]int64{
			"crc":     ends[0] + h - 1,
			"payload": ends[0] + h,
			"magic":   ends[0],
		} {
			bad := append([]byte(nil), data...)
			bad[at] ^= 0xff
			next, corrupt, n := scanAll(g.format, bad)
			if next != ends[0] || n != 1 || !corrupt {
				t.Fatalf("%s flipped %s: next %d, %d records, corrupt %v; want next %d, 1 record, corrupt",
					g.name, name, next, n, corrupt, ends[0])
			}
		}
	}
}

func TestReadRejectsMismatch(t *testing.T) {
	data, _ := testLog(Plan)
	key := bytes.Repeat([]byte{0xa5}, 16)
	if _, err := Plan.Read(bytes.NewReader(data), 0, 7, key); err != nil {
		t.Fatalf("valid record: %v", err)
	}
	for name, read := range map[string]func() error{
		"key":    func() error { _, err := Plan.Read(bytes.NewReader(data), 0, 7, make([]byte, 16)); return err },
		"length": func() error { _, err := Plan.Read(bytes.NewReader(data), 0, 6, key); return err },
		"offset": func() error { _, err := Plan.Read(bytes.NewReader(data), 1, 7, key); return err },
	} {
		if read() == nil {
			t.Errorf("read with a wrong %s succeeded", name)
		}
	}
}

// TestLogLifecycle: appends survive a reopen, a torn tail is reported and
// dropped by the rewrite, the lock excludes a second opener, and a closed
// log refuses appends.
func TestLogLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "test.log")
	keep := func(Record) bool { return true }
	l, torn, err := Open(path, Catalog, keep)
	if err != nil || torn != 0 {
		t.Fatalf("open empty: torn %d, %v", torn, err)
	}
	for _, p := range []string{"one", "two", "three"} {
		if _, err := l.Append(1, []byte(p), true); err != nil {
			t.Fatal(err)
		}
	}
	if LockExcludes {
		if _, _, err := Open(path, Catalog, keep); err == nil {
			t.Fatal("second live Open succeeded")
		}
	}
	size := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("late"), true); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != size {
		t.Fatalf("log file is %v bytes (%v), Size said %d", fi.Size(), err, size)
	}

	// Tear the last record and reopen.
	if err := os.Truncate(path, size-2); err != nil {
		t.Fatal(err)
	}
	var got []string
	l, torn, err = Open(path, Catalog, func(r Record) bool {
		got = append(got, string(r.Payload))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	wantTorn := Catalog.HeaderSize() + int64(len("three")) - 2
	if len(got) != 2 || got[0] != "one" || got[1] != "two" || torn != wantTorn {
		t.Fatalf("reopen scanned %q with %d torn bytes; want [one two] and %d", got, torn, wantTorn)
	}
	if err := l.Rewrite(1, [][]byte{[]byte("two")}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("four"), true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(Catalog.Frame(1, nil, []byte("two")), Catalog.Frame(1, nil, []byte("four"))...)
	if !bytes.Equal(data, want) || l.Size() != int64(len(want)) {
		t.Fatalf("after rewrite and append the log is %x (Size %d), want %x", data, l.Size(), want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("rewrite left its temp file behind: %v", err)
	}
}
