package spill

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/types"
)

func sampleRecords() []Record {
	return []Record{
		{Side: 0, Seq: 1, Hash: 0xdeadbeef, Key: []byte("k1"),
			Tuple: types.Tuple{types.Int(42), types.Str("hello"), types.Float(3.5)}},
		{Side: 1, Seq: 9, Hash: 7, Key: []byte{},
			Tuple: types.Tuple{types.Null(), types.Date(19000), types.Bool(true)}},
		{Side: 1, Seq: 1 << 40, Hash: math.MaxUint64, Key: []byte("key-only"), Tuple: nil},
		{Side: 0, Seq: 0, Hash: 0, Key: []byte(strings.Repeat("x", 300)),
			Tuple: types.Tuple{types.Int(-5), types.Float(math.Inf(1)), types.Str("")}},
	}
}

func equalRecords(a, b *Record) bool {
	if a.Side != b.Side || a.Seq != b.Seq || a.Hash != b.Hash || string(a.Key) != string(b.Key) {
		return false
	}
	if (a.Tuple == nil) != (b.Tuple == nil) || len(a.Tuple) != len(b.Tuple) {
		return false
	}
	for i := range a.Tuple {
		if a.Tuple[i] != b.Tuple[i] {
			return false
		}
	}
	return true
}

// TestRoundTrip: every appended record decodes back exactly, across frame
// boundaries, and the run supports multiple independent read passes.
func TestRoundTrip(t *testing.T) {
	run, err := NewRun(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()

	want := sampleRecords()
	// Enough volume to force several frame cuts.
	const copies = 2000
	for c := 0; c < copies; c++ {
		for i := range want {
			if err := run.Append(&want[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, exp := run.Records(), int64(copies*len(want)); got != exp {
		t.Fatalf("Records() = %d, want %d", got, exp)
	}
	if err := run.Flush(); err != nil {
		t.Fatal(err)
	}
	if run.Bytes() == 0 {
		t.Fatal("Flush wrote no bytes")
	}

	for pass := 0; pass < 3; pass++ {
		rd, err := run.Reader()
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		n := 0
		for {
			ok, err := rd.Next(&rec)
			if err != nil {
				t.Fatalf("pass %d record %d: %v", pass, n, err)
			}
			if !ok {
				break
			}
			if exp := &want[n%len(want)]; !equalRecords(&rec, exp) {
				t.Fatalf("pass %d record %d = %+v, want %+v", pass, n, rec, *exp)
			}
			n++
		}
		if n != copies*len(want) {
			t.Fatalf("pass %d decoded %d records, want %d", pass, n, copies*len(want))
		}
		rd.Close()
	}
}

// TestEmptyRun: a run with no records reads back as empty, from a reader
// opened before any write.
func TestEmptyRun(t *testing.T) {
	run, err := NewRun(t.TempDir(), "empty")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	rd, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var rec Record
	if ok, err := rd.Next(&rec); ok || err != nil {
		t.Fatalf("empty run Next = (%v, %v), want (false, nil)", ok, err)
	}
}

// TestCorruptionDetected: flipping a payload byte must surface as a checksum
// error, not as silently wrong records.
func TestCorruptionDetected(t *testing.T) {
	run, err := NewRun(t.TempDir(), "corrupt")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	recs := sampleRecords()
	for i := range recs {
		if err := run.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.Flush(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the first frame's payload (offset 8 skips the
	// header).
	f, err := os.OpenFile(run.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 12); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rd, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var rec Record
	for {
		ok, err := rd.Next(&rec)
		if err != nil {
			if !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("corruption surfaced as %v, want a checksum error", err)
			}
			return
		}
		if !ok {
			t.Fatal("corrupted frame read back without error")
		}
	}
}

// TestTruncationDetected: a run cut off mid-frame surfaces a truncation
// error.
func TestTruncationDetected(t *testing.T) {
	run, err := NewRun(t.TempDir(), "trunc")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	recs := sampleRecords()
	for i := range recs {
		if err := run.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(run.path, run.Bytes()-3); err != nil {
		t.Fatal(err)
	}

	rd, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var rec Record
	for {
		ok, err := rd.Next(&rec)
		if err != nil {
			return // truncation detected, as required
		}
		if !ok {
			t.Fatal("truncated frame read back as clean EOF")
		}
	}
}

// TestCloseRemovesFile: Close deletes the run's backing file (the per-query
// temp dir must not accumulate finished runs).
func TestCloseRemovesFile(t *testing.T) {
	dir := t.TempDir()
	run, err := NewRun(dir, "rm")
	if err != nil {
		t.Fatal(err)
	}
	path := run.path
	if err := run.Append(&Record{Key: []byte("k")}); err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("run file still exists after Close (stat err %v)", err)
	}
	if err := run.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestVarintBoundary pins the zigzag encoding of extreme ints.
func TestVarintBoundary(t *testing.T) {
	run, err := NewRun(t.TempDir(), "varint")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	want := Record{Seq: math.MaxUint64, Hash: 1,
		Key: binary.BigEndian.AppendUint64(nil, 1),
		Tuple: types.Tuple{types.Int(math.MinInt64), types.Int(math.MaxInt64),
			types.Float(math.NaN())}}
	if err := run.Append(&want); err != nil {
		t.Fatal(err)
	}
	rd, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var rec Record
	if ok, err := rd.Next(&rec); !ok || err != nil {
		t.Fatalf("Next = (%v, %v)", ok, err)
	}
	if rec.Seq != want.Seq || rec.Tuple[0].I != math.MinInt64 || rec.Tuple[1].I != math.MaxInt64 {
		t.Fatalf("extremes decoded as %+v", rec)
	}
	if !math.IsNaN(rec.Tuple[2].F) {
		t.Fatalf("NaN decoded as %v", rec.Tuple[2].F)
	}
}

// contractRecords covers every value kind, NULLs, empty strings and keys, a
// zero-column tuple and a key-only record.
func contractRecords() []Record {
	return []Record{
		{Side: 0, Seq: 1, Hash: 11, Key: []byte("all-kinds"),
			Tuple: types.Tuple{types.Int(-7), types.Float(-0.25), types.Str("s"),
				types.Date(19000), types.Bool(false), types.Bool(true), types.Null()}},
		{Side: 1, Seq: 2, Hash: 12, Key: []byte{},
			Tuple: types.Tuple{types.Null(), types.Null(), types.Str(""), types.Str("")}},
		{Side: 0, Seq: 3, Hash: 13, Key: []byte("zero-cols"), Tuple: types.Tuple{}},
		{Side: 1, Seq: 4, Hash: 14, Key: []byte("key-only"), Tuple: nil},
		{Side: 0, Seq: 5, Hash: 15, Key: []byte(""), Tuple: nil},
		{Side: 1, Seq: math.MaxUint64, Hash: math.MaxUint64, Key: []byte(strings.Repeat("k", 200)),
			Tuple: types.Tuple{types.Str(strings.Repeat("v", 1000)), types.Int(math.MinInt64)}},
	}
}

// TestNextKeyDecodeTupleMatchesNext: reading header-first and decoding the
// tuple on demand returns exactly what Next returns — and what was appended
// — for every record shape, including nil versus zero-column tuples.
func TestNextKeyDecodeTupleMatchesNext(t *testing.T) {
	run, err := NewRun(t.TempDir(), "contract")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	want := contractRecords()
	const copies = 300 // several frames
	for c := 0; c < copies; c++ {
		for i := range want {
			if err := run.Append(&want[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	full, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	lazy, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()

	var a, b Record
	for n := 0; ; n++ {
		okA, errA := full.Next(&a)
		okB, errB := lazy.NextKey(&b)
		if errA != nil || errB != nil {
			t.Fatalf("record %d: Next err %v, NextKey err %v", n, errA, errB)
		}
		if okA != okB {
			t.Fatalf("record %d: Next ok=%v, NextKey ok=%v", n, okA, okB)
		}
		if !okA {
			if n != copies*len(want) {
				t.Fatalf("read %d records, want %d", n, copies*len(want))
			}
			return
		}
		if b.Tuple != nil {
			t.Fatalf("record %d: NextKey filled the tuple", n)
		}
		if b.Tuple, err = b.DecodeTuple(); err != nil {
			t.Fatalf("record %d: DecodeTuple: %v", n, err)
		}
		exp := &want[n%len(want)]
		if !equalRecords(&a, exp) || !equalRecords(&b, exp) {
			t.Fatalf("record %d: Next %+v, NextKey+DecodeTuple %+v, want %+v", n, a, b, *exp)
		}
	}
}

// frameReader returns a Reader over payload wrapped in one frame with a
// valid checksum, so a test controls every byte the decoder sees. The frame
// buffer starts with spare capacity filled with garbage, so a decode that
// sliced past the frame would find bytes rather than a bounds panic.
func frameReader(payload []byte) *Reader {
	framed := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(payload, castagnoli))
	framed = append(framed, payload...)
	buf := bytes.Repeat([]byte{0xa5}, len(payload)+64)
	return &Reader{br: bufio.NewReader(bytes.NewReader(framed)), buf: buf}
}

// valsLenAt returns the offset of the valsLen field in rec's encoding.
func valsLenAt(rec Record) int {
	rec.Tuple = nil
	return len(appendRecord(nil, &rec)) - 4
}

// TestCorruptTupleLength: a tuple length that disagrees with the values,
// inside a frame whose checksum is valid, is a typed corruption error —
// from NextKey when the length would skip past the frame (or contradicts
// the column count), from DecodeTuple when the values do not fill it.
func TestCorruptTupleLength(t *testing.T) {
	rec := Record{Side: 1, Seq: 3, Hash: 9, Key: []byte("key"),
		Tuple: types.Tuple{types.Int(1), types.Str("abc"), types.Float(2)}}
	enc := appendRecord(nil, &rec)
	at := valsLenAt(rec)
	vlen := binary.LittleEndian.Uint32(enc[at:])
	withLen := func(n uint32, trailer []byte) []byte {
		b := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint32(b[at:], n)
		return append(b, trailer...)
	}
	keyOnly := appendRecord(nil, &Record{Key: []byte("k")})
	// A key-only record claiming one byte of values.
	nilWithVals := append(append([]byte(nil), keyOnly...), 0)
	binary.LittleEndian.PutUint32(nilWithVals[len(keyOnly)-4:], 1)
	// Two NULL columns (one byte each) squeezed into a one-byte length.
	twoNulls := appendRecord(nil, &Record{Key: []byte("k"), Tuple: types.Tuple{types.Null(), types.Null()}})
	twoNulls = twoNulls[:len(twoNulls)-1]
	binary.LittleEndian.PutUint32(twoNulls[len(twoNulls)-5:], 1)

	skipped := map[string][]byte{
		"past frame":               withLen(vlen+1, nil),
		"far past frame":           withLen(math.MaxUint32, nil),
		"nil tuple with values":    nilWithVals,
		"fewer bytes than columns": twoNulls,
	}
	for name, payload := range skipped {
		for _, decode := range []bool{false, true} {
			var rec Record
			var err error
			if decode {
				_, err = frameReader(payload).Next(&rec)
			} else {
				_, err = frameReader(payload).NextKey(&rec)
			}
			if !errors.Is(err, errCorrupt) {
				t.Errorf("%s (decode=%v): err = %v, want errCorrupt", name, decode, err)
			}
		}
	}

	// Lengths that stay inside the frame pass the header check; the values
	// then fail to fill them exactly.
	decoded := map[string][]byte{
		"one short": withLen(vlen-1, nil),
		"one long":  withLen(vlen+1, keyOnly),
	}
	for name, payload := range decoded {
		rd := frameReader(payload)
		var rec Record
		if ok, err := rd.NextKey(&rec); !ok || err != nil {
			t.Fatalf("%s: NextKey = (%v, %v), want a record", name, ok, err)
		}
		if _, err := rec.DecodeTuple(); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: DecodeTuple err = %v, want errCorrupt", name, err)
		}
		if _, err := frameReader(payload).Next(&rec); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: Next err = %v, want errCorrupt", name, err)
		}
	}
}

// TestNextKeyAllocs: a header-only pass over a run allocates per pass
// (file handle, buffers), never per record.
func TestNextKeyAllocs(t *testing.T) {
	run, err := NewRun(t.TempDir(), "allocs")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	recs := contractRecords()
	const records = 20000
	for i := 0; i < records; i++ {
		if err := run.Append(&recs[i%len(recs)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.Flush(); err != nil {
		t.Fatal(err)
	}
	var rec Record
	allocs := testing.AllocsPerRun(5, func() {
		rd, err := run.Reader()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			ok, err := rd.NextKey(&rec)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		rd.Close()
		if n != records {
			t.Fatalf("read %d records, want %d", n, records)
		}
	})
	// Opening a pass costs a handful of allocations; 20000 records must not
	// add any.
	if allocs > 16 {
		t.Fatalf("a NextKey pass over %d records made %.0f allocations", records, allocs)
	}
}

// within reports whether sub lies inside frame's bytes.
func within(sub, frame []byte) bool {
	if len(sub) == 0 {
		return true
	}
	s := uintptr(unsafe.Pointer(unsafe.SliceData(sub)))
	f := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	return s >= f && s+uintptr(len(sub)) <= f+uintptr(len(frame))
}

// FuzzReader feeds arbitrary payloads, wrapped in a frame with a valid
// checksum, to the decoder: NextKey and DecodeTuple must never panic, every
// slice they hand out must lie inside the frame, and a record that decodes
// must re-encode to a record that decodes the same way. The seed corpus
// runs with the package tests; `make fuzz-spill` runs the long search.
func FuzzReader(f *testing.F) {
	var all []byte
	for _, rec := range append(sampleRecords(), contractRecords()...) {
		enc := appendRecord(nil, &rec)
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		all = append(all, enc...)
	}
	f.Add(all)
	f.Add([]byte{})
	f.Add([]byte{0})
	huge := appendRecord(nil, &Record{Key: []byte("k"), Tuple: types.Tuple{types.Str("abc")}})
	binary.LittleEndian.PutUint32(huge[valsLenAt(Record{Key: []byte("k")}):], math.MaxUint32)
	f.Add(huge)
	f.Add(append([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))

	f.Fuzz(func(t *testing.T, payload []byte) {
		rd := frameReader(payload)
		var rec Record
		for {
			ok, err := rd.NextKey(&rec)
			if err != nil || !ok {
				return
			}
			if !within(rec.Key, rd.frame) || !within(rec.vals, rd.frame) {
				t.Fatalf("record slices escape the frame (key %d B, vals %d B, frame %d B)",
					len(rec.Key), len(rec.vals), len(rd.frame))
			}
			tup, err := rec.DecodeTuple()
			if err != nil {
				continue
			}
			rec.Tuple = tup
			enc := appendRecord(nil, &rec)
			var again Record
			if ok, err := frameReader(enc).Next(&again); !ok || err != nil {
				t.Fatalf("re-encoded record does not decode: (%v, %v)", ok, err)
			}
			if re := appendRecord(nil, &again); !bytes.Equal(re, enc) {
				t.Fatalf("record changed across a re-encode round trip")
			}
		}
	})
}
