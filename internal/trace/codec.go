package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"telcolens/internal/devices"
)

// Every stream starts with the same 8-byte header (little-endian):
//
//	magic "TLHO" | version u16 | flags u16
//
// The only format this package reads and writes is version 4 without
// flags: one file per partition, laid out as
//
//	header | block frames | end-of-blocks marker | index footer | trailer
//
// The block frames are the ones version 3 introduced (codecv3.go holds
// their payload); the index footer and its trailer are index.go's. The
// formats earlier versions wrote — v1 fixed-width records, v2
// varint-coded blocks, flate or TLZ block compression, and v3 blocks
// whose index lived in a separate sidecar file — fail with
// ErrBadVersion naming the format; telcogen regenerates any campaign
// byte for byte.
//
// Each block is framed by a fixed 56-byte descriptor:
//
//	block:  count u32 | minTS i64 | maxTS i64 | rawLen u32 | encLen u32 |
//	        tsLen u32 | ueLen u32 | dictEntries u32 | idxLen u32 |
//	        srcLen u32 | dstLen u32 | causeLen u32 |
//	        payload [encLen]byte
//
// The same frame, after a (stream u32, seq u64) key, is a batch of
// streaming ingest on the wire and in the WAL (AppendBlock and
// DecodeBlock write and read one frame on its own).
//
// A count of 0, which no block has, is the end-of-blocks marker: the
// four bytes u32 0 after the last block. The block reader stops there
// and never reads the footer; a stream that ends without the marker is
// truncated. Each block holds up to BlockRecords records encoded
// column-at-a-time, in payload order: timestamps, UE, TAC dictionary,
// TAC indexes, source, target, cause, then the fixed-width tail (RAT
// pairs, results, durations).
//
// The per-block (minTS, maxTS, count) descriptor lets readers skip whole
// blocks that fall outside a requested time range without decoding the
// payload: a pruned block costs one Discard of its payload. rawLen and
// encLen are the payload size, stored twice; they could differ only in
// the compressed formats earlier versions wrote.
//
// The descriptor also carries each variable-width column's byte extent
// (the fixed-width tail is implied by count). That lets the decoder check
// every section against its extent and jump over the sections a column
// projection skips without reading them.

// Magic identifies telcolens handover trace streams.
var Magic = [4]byte{'T', 'L', 'H', 'O'}

// HeaderSize is the encoded header length in bytes.
const HeaderSize = 8

// RecordSize is the size of one record as a fixed-width image (ts i64,
// four u32 ids, RAT pair, result, cause u16, fixed-point duration u16):
// the raw-equivalent size the storage inventory compares stored bytes
// against.
const RecordSize = 30

// ErrBadMagic is returned when a stream does not start with Magic.
var ErrBadMagic = errors.New("trace: bad magic (not a telcolens trace)")

// ErrBadVersion is returned for stream versions and flags this package
// does not read.
var ErrBadVersion = errors.New("trace: unsupported stream version")

// ErrTruncated is returned when a stream ends mid-record.
var ErrTruncated = errors.New("trace: truncated record")

// ErrCorruptBlock is returned when a block fails structural validation.
var ErrCorruptBlock = errors.New("trace: corrupt block")

// DefaultBlockRecords is the default number of records per block.
const DefaultBlockRecords = 4096

// endOfBlocks is the marker that follows a stream's last block: a block
// count of 0.
var endOfBlocks = [4]byte{}

// MaxBlockRecords caps the records of one block: a writer refuses a
// larger block size, AppendBlock a larger batch, and the decoders a
// descriptor that claims more.
const MaxBlockRecords = 1 << 20

// Sanity caps enforced while decoding untrusted streams.
const (
	maxBlockPayload = 1 << 28
	blockHeadSize   = 4 + 8 + 8 + 4 + 4 + 7*4
)

// ColumnSet selects which record fields a scan must decode. The
// sectioned block layout makes skipping a column free: the decoder jumps
// the cursor straight to the section end without touching the bytes.
// Timestamps are always decoded (range filtering and block validation
// depend on them). Fields outside the projection hold unspecified values
// — collectors must only read what they projected.
type ColumnSet uint8

// Projectable column groups of a block.
const (
	// ColUE is the subscriber id column.
	ColUE ColumnSet = 1 << iota
	// ColTAC is the dictionary-encoded device column.
	ColTAC
	// ColSectors covers the source and target sector columns.
	ColSectors
	// ColCause is the failure-cause column.
	ColCause
	// ColOutcome covers the fixed-width tail: RATs, result and duration.
	ColOutcome
	// ColTimestamp marks a projection that needs nothing beyond the
	// timestamps (which every projection decodes anyway); use it alone
	// for pure counting/temporal scans.
	ColTimestamp
)

// AllColumns decodes every field (the default; a zero ColumnSet means
// the same).
const AllColumns ColumnSet = ColUE | ColTAC | ColSectors | ColCause | ColOutcome | ColTimestamp

// BlockStats counts stream activity during a read.
type BlockStats struct {
	// BlocksRead is the number of block payloads decoded.
	BlocksRead int64
	// BlocksSkipped is the number of blocks pruned by the time range
	// without decoding their payload.
	BlocksSkipped int64
	// BlocksFiltered is the number of blocks pruned by a block filter
	// (SetBlockFilter, fed from a partition index) without decoding
	// their payload. Range-pruned blocks count as skipped, not filtered.
	BlocksFiltered int64
	// BytesRead is the number of stored stream bytes consumed by decoded
	// data: the stream header, each decoded block's descriptor and
	// payload, and the end-of-blocks marker once reached. Pruned blocks
	// do not count, so a full unwindowed read reports exactly the bytes
	// before the index footer, which the block reader never reads.
	BytesRead int64
}

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

// Duration encoding: 15 bits of magnitude plus a scale bit. Scale 0 stores
// 0.1 ms units (0–3276.7 ms, covering all successful HOs); scale 1 stores
// whole milliseconds (3277–32767 ms, covering timeout failures up to
// ~32 s). Blocks store durations as f32 but pass them through this
// fixed-point round trip first (quantizeDuration), so a stored duration
// does not depend on the float value's low bits. The codes an encoder
// writes rank as their values do, so code order is value order.

// DurationCode returns the 16-bit code of duration ms, clamped to the
// codec's range. ok reports whether ms is exactly a value the codec
// stores, DurationValue(code) bit for bit; NaN, −0, a negative value, an
// off-grid value or one past 32 767 ms is not.
func DurationCode(ms float32) (code uint16, ok bool) {
	switch {
	case ms < 0:
		code = 0
	case ms <= 3276.7:
		code = uint16(math.Round(float64(ms) * 10))
	default:
		code = uint16(math.Min(math.Round(float64(ms)), 32767)) | 0x8000
	}
	return code, math.Float32bits(DurationValue(code)) == math.Float32bits(ms)
}

// DurationValue returns the duration in ms that code stands for.
func DurationValue(code uint16) float32 {
	if code&0x8000 != 0 {
		return float32(code & 0x7fff)
	}
	return float32(code) / 10
}

// quantizeDuration maps a duration onto the codec's canonical resolution
// (the fixed-point encode/decode round trip).
func quantizeDuration(ms float32) float32 {
	code, _ := DurationCode(ms)
	return DurationValue(code)
}

// retiredFormat names a stream format earlier versions wrote and this
// one no longer reads, or "" for a header no version ever wrote.
func retiredFormat(version, flags uint16) string {
	switch {
	case version == 1:
		return "v1 fixed-width records"
	case version == 2 && flags == 0:
		return "v2 varint-coded blocks"
	case (version == 2 || version == 3) && flags == 1:
		return fmt.Sprintf("v%d with flate-compressed blocks", version)
	case version == 3 && flags == 2:
		return "v3 with TLZ-compressed blocks"
	case version == 3 && flags == 0:
		return "v3 blocks with a separate index sidecar"
	}
	return ""
}

// Reader decodes a partition stream's blocks into columnar batches.
// NextColumns reuses the caller's batch, so iteration is allocation-free
// in steady state. SetTimeRange restricts the stream to a timestamp window; blocks
// entirely outside it are skipped without decoding.
type Reader struct {
	r *bufio.Reader

	// Decode scratch, reused across blocks.
	head    [blockHeadSize]byte
	payload []byte
	tacDict []devices.TAC
	stats   BlockStats

	hasRange     bool
	minTS, maxTS int64
	proj         ColumnSet // 0 = decode everything

	// Block-ordinal pruning: blockOrd counts every descriptor seen in
	// stream order; blockFilter, when set, vetoes decoding a block by
	// that ordinal (see SetBlockFilter).
	blockOrd    int
	blockFilter func(block int) bool

	// ended is set once the end-of-blocks marker has been read.
	ended bool
}

// readWindow is the Reader's buffer size, chosen so default blocks
// always fit a zero-copy Peek (see readBlockColumns); larger blocks fall
// back to a copy.
const readWindow = 1 << 18

// NewReader validates the stream header and returns a Reader. A header
// naming a format this package does not read fails with ErrBadVersion;
// for the formats earlier versions wrote, the message names the format.
func NewReader(r io.Reader) (*Reader, error) {
	return newWindowReader(bufio.NewReaderSize(r, readWindow))
}

// windowPool recycles readWindow-sized read windows across partition
// opens: scans and queries open one partition after another, and the
// window is by far the largest thing an open would otherwise allocate.
var windowPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readWindow) }}

// getWindow takes a pooled read window and points it at r.
func getWindow(r io.Reader) *bufio.Reader {
	br := windowPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// putWindow detaches a window from its source and returns it to the
// pool. The caller must not touch br afterwards.
func putWindow(br *bufio.Reader) {
	br.Reset(nil)
	windowPool.Put(br)
}

// newWindowReader validates the stream header read through br and
// returns a Reader decoding from br.
func newWindowReader(br *bufio.Reader) (*Reader, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if [4]byte(hdr[0:4]) != Magic {
		return nil, ErrBadMagic
	}
	v := binary.LittleEndian.Uint16(hdr[4:6])
	flags := binary.LittleEndian.Uint16(hdr[6:8])
	if v != VersionV4 || flags != 0 {
		if name := retiredFormat(v, flags); name != "" {
			return nil, fmt.Errorf("%w: %s is no longer readable; regenerate the campaign with telcogen", ErrBadVersion, name)
		}
		return nil, fmt.Errorf("%w: version %d flags %#x", ErrBadVersion, v, flags)
	}
	// Byte accounting starts at the header, so a fully decoded stream
	// reports exactly its stored size.
	return &Reader{r: br, stats: BlockStats{BytesRead: HeaderSize}}, nil
}

// ReadStats returns the block read/skip counters so far.
func (r *Reader) ReadStats() BlockStats { return r.stats }

// SetTimeRange restricts the stream to records with
// minTS <= Timestamp <= maxTS. Blocks whose [min, max] descriptor
// misses the window are skipped without decoding.
func (r *Reader) SetTimeRange(minTS, maxTS int64) {
	r.hasRange = true
	r.minTS = minTS
	r.maxTS = maxTS
}

// SetBlockFilter restricts which blocks are decoded: keep is called
// with each block's stream ordinal (0-based, counting every block in the
// stream — including blocks the time range prunes, so ordinals stay
// aligned with any external per-block index) and a false return skips
// the block without reading its payload. Like SetTimeRange this is a
// pruning facility: callers that know from a PartitionIndex which
// blocks cannot match use it to avoid decoding the rest.
func (r *Reader) SetBlockFilter(keep func(block int) bool) { r.blockFilter = keep }

// SetProjection restricts which columns blocks decode (timestamps are
// always decoded). Skipped sections are jumped over without reading;
// the corresponding columns are left unspecified.
func (r *Reader) SetProjection(cols ColumnSet) { r.proj = cols }

// NextColumns fills cb with the next run of records in columnar (SoA)
// form and returns how many it holds: one call decodes one block
// straight into the column slices (minus any rows outside the time
// range, honoring the column projection). It returns (0, io.EOF) at the
// end-of-blocks marker and ErrTruncated or ErrCorruptBlock on a damaged
// stream.
func (r *Reader) NextColumns(cb *ColumnBatch) (int, error) {
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

// readBlockColumns reads block descriptors until one intersects the
// configured time range and passes parseBlockDesc, and decodes that
// block column-at-a-time straight into cb (resized to the block's
// count). It returns io.EOF at the end-of-blocks marker, and from then
// on, and ErrTruncated or ErrCorruptBlock otherwise.
func (r *Reader) readBlockColumns(cb *ColumnBatch) error {
	for {
		if r.ended {
			return io.EOF
		}
		// The count comes first, alone: after the marker's four bytes
		// the file holds the footer, which is not read here.
		if _, err := io.ReadFull(r.r, r.head[:4]); err != nil {
			return readErr(err)
		}
		if binary.LittleEndian.Uint32(r.head[0:4]) == 0 {
			r.ended = true
			r.stats.BytesRead += int64(len(endOfBlocks))
			return io.EOF
		}
		if _, err := io.ReadFull(r.r, r.head[4:]); err != nil {
			return readErr(err)
		}
		d, err := parseBlockDesc(r.head[:])
		if err != nil {
			return err
		}
		ord := r.blockOrd
		r.blockOrd++
		if r.hasRange && (d.maxTS < r.minTS || d.minTS > r.maxTS) {
			if _, err := r.r.Discard(d.size); err != nil {
				return readErr(err)
			}
			r.stats.BlocksSkipped++
			continue
		}
		if r.blockFilter != nil && !r.blockFilter(ord) {
			if _, err := r.r.Discard(d.size); err != nil {
				return readErr(err)
			}
			r.stats.BlocksFiltered++
			continue
		}
		// Zero-copy fast path: blocks that fit the bufio window are decoded
		// straight out of it, and the peeked bytes are discarded once
		// decoded, before the next read invalidates them. Oversized blocks
		// fall back to a copy.
		peeked := d.size <= r.r.Size()
		var payload []byte
		if peeked {
			if payload, err = r.r.Peek(d.size); err != nil {
				return readErr(err)
			}
		} else {
			if cap(r.payload) < d.size {
				r.payload = make([]byte, d.size)
			}
			payload = r.payload[:d.size]
			if _, err := io.ReadFull(r.r, payload); err != nil {
				return readErr(err)
			}
		}
		if err := decodeBlockColumns(payload, &d, r.proj, cb, &r.tacDict); err != nil {
			return err
		}
		if peeked {
			if _, err := r.r.Discard(d.size); err != nil {
				return readErr(err)
			}
		}
		r.stats.BlocksRead++
		r.stats.BytesRead += int64(blockHeadSize + d.size)
		return nil
	}
}

// blockDesc is a block frame's fixed descriptor (see the layout at the
// top of this file). Besides the count and timestamp bounds it carries
// the byte extents of the variable-width columns (and the TAC
// dictionary's entry count), so the decoder can run every column cursor
// independently.
type blockDesc struct {
	count        int
	minTS, maxTS int64
	// size is the payload's byte length, stored as both rawLen and
	// encLen.
	size int

	tsLen, ueLen, dictEntries, idxLen, srcLen, dstLen, causeLen uint32
}

// extents lists the column extents in the order the descriptor stores
// them.
func (d *blockDesc) extents() [7]*uint32 {
	return [7]*uint32{&d.tsLen, &d.ueLen, &d.dictEntries, &d.idxLen, &d.srcLen, &d.dstLen, &d.causeLen}
}

// appendBlockDesc appends d's blockHeadSize-byte encoding to dst. It is
// the one place a descriptor is written.
func appendBlockDesc(dst []byte, d blockDesc) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(d.count))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.minTS))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.maxTS))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(d.size)) // rawLen
	dst = binary.LittleEndian.AppendUint32(dst, uint32(d.size)) // encLen
	for _, v := range d.extents() {
		dst = binary.LittleEndian.AppendUint32(dst, *v)
	}
	return dst
}

// parseBlockDesc decodes the blockHeadSize bytes of head and validates
// them structurally. It is the one place a descriptor is read: the
// partition Reader and DecodeBlock both call it.
func parseBlockDesc(head []byte) (blockDesc, error) {
	le := binary.LittleEndian
	count := le.Uint32(head[0:4])
	rawLen, encLen := le.Uint32(head[20:24]), le.Uint32(head[24:28])
	d := blockDesc{count: int(count), minTS: int64(le.Uint64(head[4:12])),
		maxTS: int64(le.Uint64(head[12:20])), size: int(rawLen)}
	for i, v := range d.extents() {
		*v = le.Uint32(head[28+4*i:])
	}
	if count == 0 || count > MaxBlockRecords || d.minTS > d.maxTS || rawLen > maxBlockPayload {
		return d, fmt.Errorf("%w: bad block descriptor (count=%d raw=%d enc=%d)",
			ErrCorruptBlock, count, rawLen, encLen)
	}
	if rawLen != encLen {
		// Payloads are stored as encoded; the two lengths only ever
		// differed in the compressed formats.
		return d, fmt.Errorf("%w: block with raw %d != enc %d", ErrCorruptBlock, rawLen, encLen)
	}
	// Structural bounds before any allocation; the sections plus the
	// fixed-width tail must tile rawLen exactly, so a lying descriptor
	// cannot trigger a large allocation relative to the bytes actually
	// present (the 6*count tail alone bounds count by the payload
	// size). Bitpacked sections hold at least their width byte (plus
	// the 4-byte reference on FOR id columns); exact width-derived
	// lengths are enforced during decode.
	if d.tsLen < 1 || d.ueLen < 5 || d.idxLen < 1 ||
		d.srcLen < 5 || d.dstLen < 5 || d.causeLen < 1 ||
		d.dictEntries == 0 || d.dictEntries > count {
		return d, fmt.Errorf("%w: implausible column extents", ErrCorruptBlock)
	}
	sum := uint64(d.tsLen) + uint64(d.ueLen) + 4*uint64(d.dictEntries) +
		uint64(d.idxLen) + uint64(d.srcLen) + uint64(d.dstLen) +
		uint64(d.causeLen) + 6*uint64(count)
	if sum != uint64(rawLen) {
		return d, fmt.Errorf("%w: column extents sum %d != payload %d",
			ErrCorruptBlock, sum, rawLen)
	}
	return d, nil
}
