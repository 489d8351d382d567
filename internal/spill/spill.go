// Package spill is the out-of-core state layer behind the executor's
// bucket-discard eviction policy: when a partitioned operator's hash state
// exceeds its memory share, whole buckets are serialized to a spill run on
// disk and the memory is reclaimed; a merge/rescan phase drains the runs
// after input-done.
//
// A Run is an append-only file of Records, batch-serialized into CRC-guarded
// frames: records accumulate in an in-memory payload buffer and are written
// as one frame — [u32 payload length][u32 CRC-32 (Castagnoli)][payload] —
// when the buffer fills or Flush is called, so the per-record write cost is
// one buffer append, not one syscall. Readers verify each frame's checksum
// before decoding, so a torn or corrupted run surfaces as a typed error
// instead of wrong query results. A Run may be read concurrently with
// nothing (readers come after the writer's Flush) and re-read any number of
// times — the executor's merge phase makes one pass per hash sub-bucket.
//
// Record values are encoded kind-tagged: integer-backed kinds as zigzag
// varints, floats as raw IEEE bits, strings length-prefixed, NULL as a bare
// tag. The encoding is exact — a decoded Record compares equal to what was
// appended — which is what lets capped (spilling) executions return
// byte-identical results to unbounded ones. Inside a frame, one record is
//
//	side u8 · seq uvarint · hash fixed64 · keyLen uvarint · key bytes ·
//	ncols+1 uvarint (0 = nil tuple) · valsLen u32 · values (valsLen bytes)
//
// where each value is a kind u8 followed by its payload: NULL none;
// INT/DATE/BOOL zigzag varint; FLOAT raw IEEE bits fixed64; STRING uvarint
// length + bytes. valsLen puts the record's end right after its header, so
// a reader can skip a tuple without decoding it.
//
// # Reader contract
//
// A merge pass usually needs only a record's header: it discards records of
// other sub-buckets and probes the rest by key. Reader.NextKey therefore
// decodes just Side, Seq, Hash and Key and leaves Tuple nil; Key and the
// record's encoded values alias the reader's frame buffer and stay valid
// until the next NextKey or Next call. Record.DecodeTuple builds the tuple
// from those values on demand into a freshly allocated Tuple (strings
// copied), which the caller may retain indefinitely. Next is NextKey plus
// DecodeTuple. Every frame is CRC-verified before any of its records is
// decoded, and every length is bounds-checked against the frame, so a
// corrupt run surfaces as an error — never as a panic, an out-of-frame read
// or a silently wrong record.
//
// Temp-file lifecycle is owned by the caller: runs are created inside a
// caller-supplied directory (the executor uses one temp dir per query,
// removed when the query finishes), and Close removes the run's file
// eagerly.
package spill

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/types"
)

// Record is one spilled hash-table entry. Side distinguishes an operator's
// two inputs (join build sides; the distinct operator reuses it to mark
// already-emitted keys), Seq is the entry's partition ticket (the symmetric
// join's arrival clock), Hash/Key are the entry's hash-table identity, and
// Tuple is the stored row (nil for key-only records).
type Record struct {
	Side  uint8
	Seq   uint64
	Hash  uint64
	Key   []byte
	Tuple types.Tuple

	// Set by Reader.NextKey for DecodeTuple: the encoded column count plus
	// one (0 = nil tuple) and the encoded values, aliasing the frame.
	ncols uint64
	vals  []byte
}

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameTarget is the payload size at which a frame is cut: large enough to
// amortize the 8-byte frame header and the write syscall, small enough that
// a reader's frame buffer stays cache-friendly.
const frameTarget = 64 << 10

// Run is an append-only spill file. Append and Flush are the writer side;
// Reader opens an independent decode pass over everything flushed so far.
// A Run is not concurrency-safe: the executor serializes access per
// operator partition.
type Run struct {
	f       *os.File
	path    string
	payload []byte // current frame under construction
	bytes   int64  // total frame bytes written (header + payload)
	records int64
}

// NewRun creates a run file inside dir (pattern names the operator for
// debuggability; the actual filename is unique).
func NewRun(dir, pattern string) (*Run, error) {
	f, err := os.CreateTemp(dir, pattern+"-*.run")
	if err != nil {
		return nil, fmt.Errorf("spill: create run: %w", err)
	}
	return &Run{f: f, path: f.Name()}, nil
}

// Append serializes one record into the current frame, cutting the frame to
// disk when it reaches the target size. The record's Key and Tuple are
// copied by encoding; the caller may reuse them immediately.
func (r *Run) Append(rec *Record) error {
	r.payload = appendRecord(r.payload, rec)
	r.records++
	if len(r.payload) >= frameTarget {
		return r.cut()
	}
	return nil
}

// Flush writes any buffered records as a final (possibly short) frame. Call
// before opening a Reader.
func (r *Run) Flush() error {
	if len(r.payload) == 0 {
		return nil
	}
	return r.cut()
}

// cut writes the buffered payload as one CRC'd frame.
func (r *Run) cut() error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(r.payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(r.payload, castagnoli))
	if _, err := r.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("spill: write frame: %w", err)
	}
	if _, err := r.f.Write(r.payload); err != nil {
		return fmt.Errorf("spill: write frame: %w", err)
	}
	r.bytes += int64(8 + len(r.payload))
	r.payload = r.payload[:0]
	return nil
}

// Bytes returns the total bytes written to disk so far (frame headers
// included, unflushed buffer excluded).
func (r *Run) Bytes() int64 { return r.bytes }

// Records returns the number of records appended (flushed or not).
func (r *Run) Records() int64 { return r.records }

// Close removes the run's file. Safe to call more than once.
func (r *Run) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	if rmErr := os.Remove(r.path); err == nil {
		err = rmErr
	}
	return err
}

// Reader opens an independent sequential pass over everything flushed so
// far. The executor's merge phase calls it once per hash sub-bucket, so a
// run must support many passes; each Reader holds its own file handle.
func (r *Run) Reader() (*Reader, error) {
	if err := r.Flush(); err != nil {
		return nil, err
	}
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("spill: reopen run: %w", err)
	}
	return &Reader{br: bufio.NewReaderSize(f, 64<<10), f: f}, nil
}

// Reader decodes a Run front to back in append order.
type Reader struct {
	br    *bufio.Reader
	f     *os.File
	hdr   [8]byte
	buf   []byte // frame storage, reused across frames
	frame []byte // current verified frame payload: buf[:size:size]
	off   int    // decode cursor into frame
}

// NextKey decodes the next record's header into rec, returning false at end
// of run. rec.Key and the record's encoded tuple alias the reader's frame
// buffer and are valid until the next NextKey or Next call; rec.Tuple is
// left nil — call rec.DecodeTuple for the tuple. NextKey does not allocate
// once the frame buffer has grown to the run's largest frame.
func (rd *Reader) NextKey(rec *Record) (bool, error) {
	for rd.off >= len(rd.frame) {
		ok, err := rd.nextFrame()
		if err != nil || !ok {
			return false, err
		}
	}
	n, err := decodeHeader(rd.frame[rd.off:], rec)
	if err != nil {
		return false, err
	}
	rd.off += n
	return true, nil
}

// Next decodes the next record into rec, returning false at end of run.
// rec.Key aliases the reader's frame buffer and is valid until the next
// call; rec.Tuple is freshly allocated.
func (rd *Reader) Next(rec *Record) (bool, error) {
	ok, err := rd.NextKey(rec)
	if !ok || err != nil {
		return false, err
	}
	if rec.Tuple, err = rec.DecodeTuple(); err != nil {
		return false, err
	}
	return true, nil
}

// nextFrame reads and CRC-verifies the next frame; false means clean EOF.
func (rd *Reader) nextFrame() (bool, error) {
	hdr := rd.hdr[:] // a field, not a local: a local would escape per frame
	if _, err := io.ReadFull(rd.br, hdr); err != nil {
		if err == io.EOF {
			return false, nil
		}
		return false, fmt.Errorf("spill: frame header: %w", err)
	}
	size := binary.LittleEndian.Uint32(hdr[0:])
	want := binary.LittleEndian.Uint32(hdr[4:])
	if uint64(cap(rd.buf)) < uint64(size) {
		// A full frame overshoots frameTarget by up to one record; the
		// headroom lets later, slightly longer frames reuse the buffer.
		rd.buf = make([]byte, max(int(size), frameTarget)+frameTarget/4)
	}
	// The frame's capacity ends at its length, so no decode can slice past
	// the verified bytes into a previous frame's leftovers.
	frame := rd.buf[:size:size]
	if _, err := io.ReadFull(rd.br, frame); err != nil {
		return false, fmt.Errorf("spill: truncated frame: %w", err)
	}
	if got := crc32.Checksum(frame, castagnoli); got != want {
		return false, fmt.Errorf("spill: frame checksum mismatch (got %08x, want %08x)", got, want)
	}
	rd.frame, rd.off = frame, 0
	return true, nil
}

// Close releases the reader's file handle.
func (rd *Reader) Close() error { return rd.f.Close() }

// appendRecord encodes rec in the record grammar of the package doc.
func appendRecord(dst []byte, rec *Record) []byte {
	dst = append(dst, rec.Side)
	dst = binary.AppendUvarint(dst, rec.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, rec.Hash)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Key)))
	dst = append(dst, rec.Key...)
	if rec.Tuple == nil {
		dst = binary.AppendUvarint(dst, 0)
		return binary.LittleEndian.AppendUint32(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.Tuple))+1)
	lenAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // valsLen, patched below
	for _, v := range rec.Tuple {
		dst = append(dst, byte(v.K))
		switch v.K {
		case types.KindNull:
		case types.KindInt, types.KindDate, types.KindBool:
			dst = binary.AppendVarint(dst, v.I)
		case types.KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
		case types.KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		default:
			panic(fmt.Sprintf("spill: unencodable kind %v", v.K))
		}
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

var errCorrupt = errors.New("spill: corrupt record encoding")

// decodeHeader decodes one record's header from b (which starts at a record
// boundary), returning the record's full encoded length. rec.Key and
// rec.vals alias b; rec.Tuple is reset to nil. Lengths are compared as
// uint64 so a hostile varint cannot wrap a signed bounds check.
func decodeHeader(b []byte, rec *Record) (int, error) {
	if len(b) < 1 {
		return 0, errCorrupt
	}
	rec.Side = b[0]
	off := 1
	seq, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, errCorrupt
	}
	off += n
	rec.Seq = seq
	if len(b)-off < 8 {
		return 0, errCorrupt
	}
	rec.Hash = binary.LittleEndian.Uint64(b[off:])
	off += 8
	klen, n := binary.Uvarint(b[off:])
	if n <= 0 || klen > uint64(len(b)-off-n) {
		return 0, errCorrupt
	}
	off += n
	end := off + int(klen)
	rec.Key = b[off:end:end]
	off = end
	ncols, n := binary.Uvarint(b[off:])
	if n <= 0 || len(b)-off-n < 4 {
		return 0, errCorrupt
	}
	off += n
	vlen := uint64(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	// Every value takes at least its kind byte, and a nil tuple has none.
	if vlen > uint64(len(b)-off) || (ncols == 0 && vlen != 0) || (ncols > 0 && ncols-1 > vlen) {
		return 0, errCorrupt
	}
	end = off + int(vlen)
	rec.ncols = ncols
	rec.vals = b[off:end:end]
	rec.Tuple = nil
	return end, nil
}

// DecodeTuple decodes the tuple of a record read by Reader.NextKey into a
// freshly allocated Tuple (nil for a key-only record) that the caller may
// retain. It must be called before the reader's next NextKey or Next, while
// the record's encoded values are still in the frame buffer. The values
// must fill the record's valsLen exactly.
func (rec *Record) DecodeTuple() (types.Tuple, error) {
	if rec.ncols == 0 {
		return nil, nil
	}
	b := rec.vals
	t := make(types.Tuple, rec.ncols-1)
	off := 0
	for i := range t {
		if off >= len(b) {
			return nil, errCorrupt
		}
		k := types.Kind(b[off])
		off++
		switch k {
		case types.KindNull:
			t[i] = types.Null()
		case types.KindInt, types.KindDate, types.KindBool:
			v, n := binary.Varint(b[off:])
			if n <= 0 {
				return nil, errCorrupt
			}
			off += n
			t[i] = types.Value{K: k, I: v}
		case types.KindFloat:
			if len(b)-off < 8 {
				return nil, errCorrupt
			}
			t[i] = types.Float(math.Float64frombits(binary.LittleEndian.Uint64(b[off:])))
			off += 8
		case types.KindString:
			slen, n := binary.Uvarint(b[off:])
			if n <= 0 || slen > uint64(len(b)-off-n) {
				return nil, errCorrupt
			}
			off += n
			t[i] = types.Str(string(b[off : off+int(slen)]))
			off += int(slen)
		default:
			return nil, fmt.Errorf("%w: unknown value kind %d", errCorrupt, k)
		}
	}
	if off != len(b) {
		return nil, errCorrupt
	}
	return t, nil
}
