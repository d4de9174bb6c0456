package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"telcolens/internal/causes"
	"telcolens/internal/devices"
	"telcolens/internal/topology"
)

// Binary stream layout (little-endian):
//
//	header:  magic "TLHO" | version u16 | flags u16
//	record:  ts i64 | ue u32 | tac u32 | src u32 | dst u32 |
//	         rats u8 (src<<4|dst) | result u8 | cause u16 | duration f32
//
// Records are fixed width (RecordSize bytes) so readers can seek and shard
// by offset; the format is append-only.

// Magic identifies telcolens handover trace streams.
var Magic = [4]byte{'T', 'L', 'H', 'O'}

// Version is the legacy fixed-width stream format version. New streams
// default to VersionV2 (see codecv2.go); readers negotiate either from
// the shared header.
const Version uint16 = 1

// HeaderSize is the encoded header length in bytes.
const HeaderSize = 8

// RecordSize is the encoded record length in bytes.
const RecordSize = 30

// ErrBadMagic is returned when a stream does not start with Magic.
var ErrBadMagic = errors.New("trace: bad magic (not a telcolens trace)")

// ErrBadVersion is returned for unsupported stream versions.
var ErrBadVersion = errors.New("trace: unsupported stream version")

// ErrTruncated is returned when a stream ends mid-record.
var ErrTruncated = errors.New("trace: truncated record")

// readErr classifies a mid-stream read failure: a premature end of
// stream is truncation, while any other failure (a device error, an
// injected fault) keeps its own identity so corruption classification
// and errors.Is on the original cause still work.
func readErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return fmt.Errorf("trace: read: %w", err)
}

// AppendRecord appends the binary encoding of rec to buf and returns the
// extended slice.
func AppendRecord(buf []byte, rec *Record) []byte {
	var tmp [RecordSize]byte
	binary.LittleEndian.PutUint64(tmp[0:8], uint64(rec.Timestamp))
	binary.LittleEndian.PutUint32(tmp[8:12], uint32(rec.UE))
	binary.LittleEndian.PutUint32(tmp[12:16], uint32(rec.TAC))
	binary.LittleEndian.PutUint32(tmp[16:20], uint32(rec.Source))
	binary.LittleEndian.PutUint32(tmp[20:24], uint32(rec.Target))
	tmp[24] = byte(rec.SourceRAT)<<4 | byte(rec.TargetRAT)&0x0f
	tmp[25] = byte(rec.Result)
	binary.LittleEndian.PutUint16(tmp[26:28], uint16(rec.Cause))
	// Duration is stored as fixed-point 0.1 ms units in 16 bits when it
	// fits, else a sentinel redirects to a float side-channel; to keep the
	// format single-pass we clamp to the 16-bit fixed-point range
	// (6553.5 ms) only for the compact path and fall back to whole
	// milliseconds with a scale flag for longer failures.
	encodeDuration(tmp[28:30], rec.DurationMs)
	return append(buf, tmp[:]...)
}

// Duration encoding: 15 bits of magnitude plus a scale bit. Scale 0 stores
// 0.1 ms units (0–3276.7 ms, covering all successful HOs); scale 1 stores
// whole milliseconds (0–32767 ms, covering timeout failures up to ~32 s).
func encodeDuration(dst []byte, ms float32) {
	if ms < 0 {
		ms = 0
	}
	if ms <= 3276.7 {
		binary.LittleEndian.PutUint16(dst, uint16(math.Round(float64(ms)*10)))
		return
	}
	v := uint16(math.Min(math.Round(float64(ms)), 32767))
	binary.LittleEndian.PutUint16(dst, v|0x8000)
}

func decodeDuration(src []byte) float32 {
	v := binary.LittleEndian.Uint16(src)
	if v&0x8000 != 0 {
		return float32(v & 0x7fff)
	}
	return float32(v) / 10
}

// DecodeRecord decodes exactly RecordSize bytes into rec.
func DecodeRecord(buf []byte, rec *Record) error {
	if len(buf) < RecordSize {
		return ErrTruncated
	}
	rec.Timestamp = int64(binary.LittleEndian.Uint64(buf[0:8]))
	rec.UE = UEID(binary.LittleEndian.Uint32(buf[8:12]))
	rec.TAC = devices.TAC(binary.LittleEndian.Uint32(buf[12:16]))
	rec.Source = topology.SectorID(binary.LittleEndian.Uint32(buf[16:20]))
	rec.Target = topology.SectorID(binary.LittleEndian.Uint32(buf[20:24]))
	rec.SourceRAT = topology.RAT(buf[24] >> 4)
	rec.TargetRAT = topology.RAT(buf[24] & 0x0f)
	rec.Result = Result(buf[25])
	rec.Cause = causes.Code(binary.LittleEndian.Uint16(buf[26:28]))
	rec.DurationMs = decodeDuration(buf[28:30])
	return nil
}

// Writer encodes records onto an io.Writer with buffering.
type Writer struct {
	w     *bufio.Writer
	buf   []byte
	count int64
	err   error
}

// NewWriter writes the stream header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [HeaderSize]byte
	copy(hdr[0:4], Magic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw, buf: make([]byte, 0, RecordSize)}, nil
}

// WriteColumns encodes a columnar batch as fixed-width records, one
// buffered write per DefaultBlockRecords chunk. After an error every
// subsequent call returns the same error.
func (w *Writer) WriteColumns(cb *ColumnBatch) error {
	if w.err != nil {
		return w.err
	}
	var rec Record
	for off, n := 0, cb.Len(); off < n; {
		end := min(off+DefaultBlockRecords, n)
		buf := w.buf[:0]
		for i := off; i < end; i++ {
			cb.Record(i, &rec)
			buf = AppendRecord(buf, &rec)
		}
		w.buf = buf
		if _, err := w.w.Write(buf); err != nil {
			w.err = fmt.Errorf("trace: writing record: %w", err)
			return w.err
		}
		w.count += int64(end - off)
		off = end
	}
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int64 { return w.count }

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader decodes records from an io.Reader into columnar batches,
// negotiating the stream version (fixed-width v1, columnar-block v2 or
// bitpacked v3) from the header. NextColumns reuses the caller's batch,
// so iteration is allocation-free in steady state. SetTimeRange
// restricts the stream to a timestamp window — on block streams, blocks
// entirely outside the window are skipped without decoding.
type Reader struct {
	r       *bufio.Reader
	version uint16
	flags   uint16
	buf     [RecordSize]byte // v1 record scratch

	// Block-stream (v2, v3) decode scratch, reused across blocks.
	head     [blockHeadSize]byte
	payload  []byte
	inflated []byte
	tacDict  []devices.TAC
	stats    BlockStats

	// Compressed-stream scratch, reused across blocks: the flate reader
	// is Reset onto flateSrc per block instead of re-allocated, so the
	// steady-state decode loop stays allocation-free under FlagFlate too.
	flateSrc bytes.Reader
	flateR   io.ReadCloser
	trailing [1]byte

	hasRange     bool
	minTS, maxTS int64
	proj         ColumnSet // 0 = decode everything

	// Block-ordinal pruning (v2): blockOrd counts every descriptor seen
	// in stream order; blockFilter, when set, vetoes decoding a block by
	// that ordinal (see SetBlockFilter).
	blockOrd    int
	blockFilter func(block int) bool
}

// readWindow is the Reader's buffer size, chosen so default v2 blocks
// always fit a zero-copy Peek (see nextBlockFrame); larger blocks fall
// back to a copy.
const readWindow = 1 << 18

// NewReader validates the stream header and returns a Reader for either
// supported version.
func NewReader(r io.Reader) (*Reader, error) { return newReaderSize(r, readWindow) }

// newReaderSize is NewReader for a stream known to be size bytes long.
// Every block of it fits a window that size, so a stream shorter than
// readWindow — most partitions, a scan opening one per partition — gets
// a window no larger than itself.
func newReaderSize(r io.Reader, size int64) (*Reader, error) {
	br := bufio.NewReaderSize(r, int(min(size, readWindow)))
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if [4]byte(hdr[0:4]) != Magic {
		return nil, ErrBadMagic
	}
	v := binary.LittleEndian.Uint16(hdr[4:6])
	if v != Version && v != VersionV2 && v != VersionV3 {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	flags := binary.LittleEndian.Uint16(hdr[6:8])
	if v == Version && flags != 0 {
		return nil, fmt.Errorf("%w: v1 stream with flags %#x", ErrBadVersion, flags)
	}
	if v == VersionV2 && flags&^FlagFlate != 0 {
		return nil, fmt.Errorf("%w: unknown v2 flags %#x", ErrBadVersion, flags)
	}
	if v == VersionV3 {
		if flags&^(FlagFlate|FlagTLZ) != 0 {
			return nil, fmt.Errorf("%w: unknown v3 flags %#x", ErrBadVersion, flags)
		}
		if flags&FlagFlate != 0 && flags&FlagTLZ != 0 {
			return nil, fmt.Errorf("%w: v3 stream with both flate and TLZ flags", ErrBadVersion)
		}
	}
	// Byte accounting starts at the header, so a fully decoded stream
	// reports exactly its stored size.
	return &Reader{r: br, version: v, flags: flags, stats: BlockStats{BytesRead: HeaderSize}}, nil
}

// Version reports the negotiated stream version.
func (r *Reader) Version() uint16 { return r.version }

// Stats returns block read/skip counters (v2 streams only; zero for v1).
func (r *Reader) Stats() BlockStats { return r.stats }

// SetTimeRange restricts the stream to records with
// minTS <= Timestamp <= maxTS. On v2 streams, blocks whose [min, max]
// descriptor misses the window are skipped without decoding.
func (r *Reader) SetTimeRange(minTS, maxTS int64) {
	r.hasRange = true
	r.minTS = minTS
	r.maxTS = maxTS
}

// SetBlockFilter restricts which v2 blocks are decoded: keep is called
// with each block's stream ordinal (0-based, counting every block in the
// stream — including blocks the time range prunes, so ordinals stay
// aligned with any external per-block index) and a false return skips
// the block without reading its payload. Like SetTimeRange this is a
// pruning facility: callers that know from a PartitionIndex which
// blocks cannot match use it to avoid decoding the rest. A no-op on v1
// streams, which have no blocks.
func (r *Reader) SetBlockFilter(keep func(block int) bool) { r.blockFilter = keep }

// SetProjection restricts which columns v2 blocks decode (timestamps are
// always decoded). Skipped sections are jumped over without reading;
// the corresponding columns are left unspecified. A no-op on v1
// streams, which are fixed-width and always decode fully — callers must
// treat projection as an optimization hint, not a masking guarantee.
func (r *Reader) SetProjection(cols ColumnSet) { r.proj = cols }

// NextColumns fills cb with the next run of records in columnar (SoA)
// form and returns how many it holds. On block streams one call decodes
// one block straight into the column slices (minus any rows outside the
// time range, honoring the column projection); v1 streams fill up to
// DefaultBlockRecords rows from their fixed-width records. It returns
// (0, io.EOF) at a clean end of stream and ErrTruncated or
// ErrCorruptBlock on a damaged one.
func (r *Reader) NextColumns(cb *ColumnBatch) (int, error) {
	if r.version == Version {
		return r.nextColumnsV1(cb)
	}
	for {
		if err := r.readBlockColumns(cb); err != nil {
			return 0, err
		}
		if r.hasRange {
			cb.FilterRange(r.minTS, r.maxTS)
		}
		if n := cb.Len(); n > 0 {
			return n, nil
		}
	}
}

// nextColumnsV1 decodes fixed-width records into cb until it holds
// DefaultBlockRecords in-range rows or the stream ends.
func (r *Reader) nextColumnsV1(cb *ColumnBatch) (int, error) {
	cb.Reset()
	var rec Record
	for cb.Len() < DefaultBlockRecords {
		n, err := io.ReadFull(r.r, r.buf[:])
		if err == io.EOF && n == 0 {
			break
		}
		if err != nil {
			return 0, readErr(err)
		}
		r.stats.BytesRead += RecordSize
		if err := DecodeRecord(r.buf[:], &rec); err != nil {
			return 0, err
		}
		if !r.hasRange || (rec.Timestamp >= r.minTS && rec.Timestamp <= r.maxTS) {
			cb.AppendRecord(&rec)
		}
	}
	if cb.Len() == 0 {
		return 0, io.EOF
	}
	return cb.Len(), nil
}

// blockFrame is one v2 block's descriptor plus its acquired (and, when
// compressed, inflated) payload, ready to decode. When peeked is set
// the payload aliases the bufio window and must be fully consumed —
// releaseFrame discards it — before the next read.
type blockFrame struct {
	count        int
	minTS, maxTS int64
	secs         blockSections
	payload      []byte
	encLen       int
	peeked       bool
}

// releaseFrame returns a decoded frame's bytes to the reader and
// credits the read counters.
func (r *Reader) releaseFrame(f *blockFrame) error {
	if f.peeked {
		// The peeked window is decoded; release it to the bufio reader.
		if _, err := r.r.Discard(f.encLen); err != nil {
			return readErr(err)
		}
	}
	r.stats.BlocksRead++
	r.stats.BytesRead += int64(blockHeadSize + f.encLen)
	return nil
}

// readBlockColumns reads the next in-range block and decodes it
// column-at-a-time straight into cb (resized to the block's count).
func (r *Reader) readBlockColumns(cb *ColumnBatch) error {
	var f blockFrame
	if err := r.nextBlockFrame(&f); err != nil {
		return err
	}
	var err error
	if r.version == VersionV3 {
		err = decodeBlockColumnsV3(f.payload, f.minTS, f.maxTS, f.secs, r.proj, f.count, cb, &r.tacDict)
	} else {
		err = decodeBlockColumns(f.payload, f.minTS, f.maxTS, f.secs, r.proj, f.count, cb, &r.tacDict)
	}
	if err != nil {
		return err
	}
	return r.releaseFrame(&f)
}

// nextBlockFrame reads block descriptors until one intersects the
// configured time range, validates it structurally, and acquires its
// (inflated) payload. It returns io.EOF at a clean block boundary and
// ErrTruncated or ErrCorruptBlock otherwise.
func (r *Reader) nextBlockFrame(f *blockFrame) error {
	for {
		n, err := io.ReadFull(r.r, r.head[:])
		if err == io.EOF && n == 0 {
			return io.EOF
		}
		if err != nil {
			return readErr(err)
		}
		count := binary.LittleEndian.Uint32(r.head[0:4])
		minTS := int64(binary.LittleEndian.Uint64(r.head[4:12]))
		maxTS := int64(binary.LittleEndian.Uint64(r.head[12:20]))
		rawLen := binary.LittleEndian.Uint32(r.head[20:24])
		encLen := binary.LittleEndian.Uint32(r.head[24:28])
		secs := blockSections{
			tsLen:       binary.LittleEndian.Uint32(r.head[28:32]),
			ueLen:       binary.LittleEndian.Uint32(r.head[32:36]),
			dictEntries: binary.LittleEndian.Uint32(r.head[36:40]),
			idxLen:      binary.LittleEndian.Uint32(r.head[40:44]),
			srcLen:      binary.LittleEndian.Uint32(r.head[44:48]),
			dstLen:      binary.LittleEndian.Uint32(r.head[48:52]),
			causeLen:    binary.LittleEndian.Uint32(r.head[52:56]),
		}
		if count == 0 || count > maxBlockRecords || minTS > maxTS ||
			rawLen > maxBlockPayload || encLen > maxBlockPayload {
			return fmt.Errorf("%w: bad block descriptor (count=%d raw=%d enc=%d)",
				ErrCorruptBlock, count, rawLen, encLen)
		}
		// Structural bounds before any allocation; the sections plus the
		// fixed-width tail must tile rawLen exactly either way, so a lying
		// descriptor cannot trigger a large allocation relative to the
		// bytes actually present (the 6*count tail alone bounds count by
		// the payload size).
		if r.version == VersionV3 {
			// v3 sections are bitpacked, so their minimum is the width
			// byte (plus the 4-byte reference on FOR id columns); exact
			// width-derived lengths are enforced during decode.
			if secs.tsLen < 1 || secs.ueLen < 5 || secs.idxLen < 1 ||
				secs.srcLen < 5 || secs.dstLen < 5 || secs.causeLen < 1 ||
				secs.dictEntries == 0 || secs.dictEntries > count {
				return fmt.Errorf("%w: implausible column extents", ErrCorruptBlock)
			}
		} else if secs.tsLen < count || secs.ueLen < count || secs.idxLen < count ||
			secs.srcLen < count || secs.dstLen < count || secs.causeLen < count ||
			secs.dictEntries > count {
			// Every v2 varint column holds at least one byte per record,
			// the dictionary at most one entry per record.
			return fmt.Errorf("%w: implausible column extents", ErrCorruptBlock)
		}
		sum := uint64(secs.tsLen) + uint64(secs.ueLen) + 4*uint64(secs.dictEntries) +
			uint64(secs.idxLen) + uint64(secs.srcLen) + uint64(secs.dstLen) +
			uint64(secs.causeLen) + 6*uint64(count)
		if sum != uint64(rawLen) {
			return fmt.Errorf("%w: column extents sum %d != payload %d",
				ErrCorruptBlock, sum, rawLen)
		}
		switch {
		case r.flags&(FlagFlate|FlagTLZ) == 0:
			if rawLen != encLen {
				return fmt.Errorf("%w: uncompressed block with raw %d != enc %d",
					ErrCorruptBlock, rawLen, encLen)
			}
		case r.flags&FlagFlate != 0:
			if uint64(rawLen) > uint64(encLen)*maxFlateRatio+64 {
				return fmt.Errorf("%w: implausible compression ratio (raw %d from enc %d)",
					ErrCorruptBlock, rawLen, encLen)
			}
		default: // FlagTLZ
			if uint64(rawLen) > uint64(encLen)*maxTLZRatio+64 {
				return fmt.Errorf("%w: implausible compression ratio (raw %d from enc %d)",
					ErrCorruptBlock, rawLen, encLen)
			}
		}
		ord := r.blockOrd
		r.blockOrd++
		if r.hasRange && (maxTS < r.minTS || minTS > r.maxTS) {
			if _, err := r.r.Discard(int(encLen)); err != nil {
				return readErr(err)
			}
			r.stats.BlocksSkipped++
			continue
		}
		if r.blockFilter != nil && !r.blockFilter(ord) {
			if _, err := r.r.Discard(int(encLen)); err != nil {
				return readErr(err)
			}
			r.stats.BlocksFiltered++
			continue
		}
		// Zero-copy fast path: blocks that fit the bufio window are decoded
		// straight out of it (the payload is fully consumed before the next
		// read invalidates the peek). Oversized blocks fall back to a copy.
		var payload []byte
		peeked := false
		if int(encLen) <= r.r.Size() {
			p, err := r.r.Peek(int(encLen))
			if err != nil {
				return readErr(err)
			}
			payload = p
			peeked = true
		} else {
			if cap(r.payload) < int(encLen) {
				r.payload = make([]byte, encLen)
			}
			r.payload = r.payload[:encLen]
			if _, err := io.ReadFull(r.r, r.payload); err != nil {
				return readErr(err)
			}
			payload = r.payload
		}
		if r.flags&FlagTLZ != 0 {
			if cap(r.inflated) < int(rawLen) {
				r.inflated = make([]byte, rawLen)
			}
			r.inflated = r.inflated[:rawLen]
			if err := tlzDecompress(r.inflated, payload); err != nil {
				return fmt.Errorf("%w: decompressing payload: %v", ErrCorruptBlock, err)
			}
			payload = r.inflated
		}
		if r.flags&FlagFlate != 0 {
			r.flateSrc.Reset(payload)
			if r.flateR == nil {
				r.flateR = flate.NewReader(&r.flateSrc)
			} else if err := r.flateR.(flate.Resetter).Reset(&r.flateSrc, nil); err != nil {
				return fmt.Errorf("%w: inflating payload: %v", ErrCorruptBlock, err)
			}
			if cap(r.inflated) < int(rawLen) {
				r.inflated = make([]byte, rawLen)
			}
			r.inflated = r.inflated[:rawLen]
			if _, err := io.ReadFull(r.flateR, r.inflated); err != nil {
				return fmt.Errorf("%w: inflating payload: %v", ErrCorruptBlock, err)
			}
			// The compressed payload must not hide extra data.
			if n, _ := r.flateR.Read(r.trailing[:]); n != 0 {
				return fmt.Errorf("%w: compressed payload longer than rawLen", ErrCorruptBlock)
			}
			payload = r.inflated
		}
		*f = blockFrame{
			count:   int(count),
			minTS:   minTS,
			maxTS:   maxTS,
			secs:    secs,
			payload: payload,
			encLen:  int(encLen),
			peeked:  peeked,
		}
		return nil
	}
}
