package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"telcolens/internal/devices"
)

// v2 columnar block stream layout (little-endian), negotiated by the
// shared 8-byte header (magic "TLHO" | version=2 u16 | flags=0 u16).
// Programs write v3 (codecv3.go); v2 stays readable because campaigns
// written before v3 became the only write format are v2, and NewWriterV2
// remains for tests that need such a campaign:
//
//	block:  count u32 | minTS i64 | maxTS i64 | rawLen u32 | encLen u32 |
//	        tsLen u32 | ueLen u32 | dictEntries u32 | idxLen u32 |
//	        srcLen u32 | dstLen u32 | causeLen u32 |
//	        payload [encLen]byte
//
// A clean end of stream is an EOF exactly at a block boundary. Each block
// holds up to BlockRecords records encoded column-at-a-time, in payload
// order:
//
//	timestamps  zigzag-varint deltas (first delta is from minTS)
//	UE          uvarint
//	TAC dict    raw u32 entries, most frequent first (ties in
//	            first-appearance order)
//	TAC indexes uvarint per record into the dict
//	source      uvarint
//	target      uvarint
//	cause       uvarint
//	rats        1 byte per record (srcRAT<<4 | dstRAT)
//	result      1 byte per record
//	duration    raw f32, canonically quantized (see quantizeDuration)
//
// The per-block (minTS, maxTS, count) descriptor lets readers skip whole
// blocks that fall outside a requested time range without decoding the
// payload: a pruned block costs one Discard of its payload. rawLen and
// encLen are the payload size, stored twice; they could differ only in
// the compressed formats earlier versions wrote.
//
// The descriptor also carries each varint column's byte extent (the
// fixed-width tail is implied by count). That lets the decoder check
// every section against its extent and jump over the sections a column
// projection skips without reading them.
//
// Durations pass through the fixed-point quantizer before encoding, so
// a record decoded from a v2 stream is bit-identical to the same record
// decoded from a v3 stream. That invariant is what keeps rendered
// analysis artifacts byte-identical across codecs.

// VersionV2 identifies the columnar block stream format.
const VersionV2 uint16 = 2

// DefaultBlockRecords is the default number of records per block.
const DefaultBlockRecords = 4096

// Sanity caps enforced while decoding untrusted streams.
const (
	maxBlockRecords = 1 << 20
	maxBlockPayload = 1 << 28
	blockHeadSize   = 4 + 8 + 8 + 4 + 4 + 7*4
)

// ErrCorruptBlock is returned when a block fails structural validation.
var ErrCorruptBlock = errors.New("trace: corrupt block")

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

// quantizeDuration maps a duration onto the codec's canonical resolution
// (the fixed-point encode/decode round trip), so every stream version
// stores exactly the same value.
func quantizeDuration(ms float32) float32 {
	var buf [2]byte
	encodeDuration(buf[:], ms)
	return decodeDuration(buf[:])
}

// blockSections carries the byte extents of the variable-width columns
// (and the TAC dictionary entry count), stored in each block's
// descriptor so the decoder can run every column cursor independently.
type blockSections struct {
	tsLen       uint32
	ueLen       uint32
	dictEntries uint32
	idxLen      uint32
	srcLen      uint32
	dstLen      uint32
	causeLen    uint32
}

// uvarintColumn decodes one whole uvarint column section into out,
// starting at pos and expected to end exactly at pos+secLen. Values
// above max reject the block. The one- and two-byte varints that dominate
// every column take a branchless fast path; keeping the loop inside one
// generic helper (instantiated per column type) means no per-value call
// overhead.
func uvarintColumn[T ~uint16 | ~uint32 | ~uint64](payload []byte, pos int, secLen uint32, out []T, max uint64, col string) (int, error) {
	end := pos + int(secLen)
	for i := range out {
		var v uint64
		if uint(pos+1) < uint(len(payload)) && payload[pos]&payload[pos+1] < 0x80 {
			b0 := payload[pos]
			wide := b0 >> 7
			mask := -uint64(wide)
			v = uint64(b0&0x7f) | (uint64(payload[pos+1])<<7)&mask
			pos += 1 + int(wide)
		} else if v, pos = uvarintSlow(payload, pos); pos < 0 {
			return 0, fmt.Errorf("%w: %s column", ErrCorruptBlock, col)
		}
		if v > max {
			return 0, fmt.Errorf("%w: %s column", ErrCorruptBlock, col)
		}
		out[i] = T(v)
	}
	if pos != end {
		return 0, fmt.Errorf("%w: %s column", ErrCorruptBlock, col)
	}
	return pos, nil
}

// decodeBlockColumns decodes a block payload straight into the SoA
// ColumnBatch layout — the natural shape for the columnar payload: each
// section decodes in its own tight loop with one write stream, and
// skipped (unprojected) sections are jumped without touching their
// bytes. Timestamps are always decoded. cb is resized to count; columns
// outside proj hold unspecified values.
func decodeBlockColumns(payload []byte, minTS, maxTS int64, secs blockSections, proj ColumnSet, count int, cb *ColumnBatch, dictScratch *[]devices.TAC) error {
	if proj == 0 {
		proj = AllColumns
	}
	cb.resize(count)
	n := count
	pos := 0
	// Timestamps: zigzag deltas with branchless bounds accumulation.
	prev := minTS
	var tsOut uint64
	tsCol := cb.Timestamps
	for i := 0; i < n; i++ {
		var u uint64
		if uint(pos+1) < uint(len(payload)) && payload[pos]&payload[pos+1] < 0x80 {
			b0 := payload[pos]
			wide := b0 >> 7
			mask := -uint64(wide)
			u = uint64(b0&0x7f) | (uint64(payload[pos+1])<<7)&mask
			pos += 1 + int(wide)
		} else if u, pos = uvarintSlow(payload, pos); pos < 0 {
			return fmt.Errorf("%w: timestamp column", ErrCorruptBlock)
		}
		prev += int64(u>>1) ^ -int64(u&1)
		tsOut |= uint64(prev-minTS)>>63 | uint64(maxTS-prev)>>63
		tsCol[i] = prev
	}
	if pos != int(secs.tsLen) || tsOut != 0 {
		return fmt.Errorf("%w: timestamp column", ErrCorruptBlock)
	}
	// UE.
	if proj&ColUE != 0 {
		var err error
		if pos, err = uvarintColumn(payload, pos, secs.ueLen, cb.UEs, math.MaxUint32, "ue"); err != nil {
			return err
		}
	} else {
		pos += int(secs.ueLen)
	}
	// TAC dictionary and indexes.
	dictLen := uint64(secs.dictEntries)
	if proj&ColTAC != 0 {
		if dictLen > uint64(n) {
			return fmt.Errorf("%w: tac dictionary size", ErrCorruptBlock)
		}
		if cap(*dictScratch) < int(dictLen) {
			*dictScratch = make([]devices.TAC, dictLen)
		}
		dict := (*dictScratch)[:dictLen]
		for i := range dict {
			dict[i] = devices.TAC(binary.LittleEndian.Uint32(payload[pos+i*4:]))
		}
		pos += int(dictLen) * 4
		end := pos + int(secs.idxLen)
		tacCol := cb.TACs
		for i := 0; i < n; i++ {
			var idx uint64
			if uint(pos+1) < uint(len(payload)) && payload[pos]&payload[pos+1] < 0x80 {
				b0 := payload[pos]
				wide := b0 >> 7
				mask := -uint64(wide)
				idx = uint64(b0&0x7f) | (uint64(payload[pos+1])<<7)&mask
				pos += 1 + int(wide)
			} else if idx, pos = uvarintSlow(payload, pos); pos < 0 {
				return fmt.Errorf("%w: tac index column", ErrCorruptBlock)
			}
			if idx >= dictLen {
				return fmt.Errorf("%w: tac index column", ErrCorruptBlock)
			}
			tacCol[i] = dict[idx]
		}
		if pos != end {
			return fmt.Errorf("%w: tac index column", ErrCorruptBlock)
		}
	} else {
		pos += int(dictLen)*4 + int(secs.idxLen)
	}
	// Sectors.
	if proj&ColSectors != 0 {
		var err error
		if pos, err = uvarintColumn(payload, pos, secs.srcLen, cb.Sources, math.MaxUint32, "source"); err != nil {
			return err
		}
		if pos, err = uvarintColumn(payload, pos, secs.dstLen, cb.Targets, math.MaxUint32, "target"); err != nil {
			return err
		}
	} else {
		pos += int(secs.srcLen) + int(secs.dstLen)
	}
	// Cause.
	if proj&ColCause != 0 {
		var err error
		if pos, err = uvarintColumn(payload, pos, secs.causeLen, cb.Causes, math.MaxUint16, "cause"); err != nil {
			return err
		}
	} else {
		pos += int(secs.causeLen)
	}
	// Fixed-width tail: two memmoves and one f32 loop.
	if proj&ColOutcome != 0 {
		copy(cb.RATs, payload[pos:pos+n])
		results := payload[pos+n : pos+2*n]
		for i := 0; i < n; i++ {
			cb.Results[i] = Result(results[i])
		}
		durs := payload[pos+2*n : pos+6*n]
		for i := 0; i < n; i++ {
			cb.Durations[i] = math.Float32frombits(binary.LittleEndian.Uint32(durs[i*4:]))
		}
	}
	return nil
}

// uvarintSlow handles varints of any width plus end-of-buffer edges; the
// hot one- and two-byte cases are open-coded in the column loops
// (helpers with a fallback call blow the inlining budget).
func uvarintSlow(buf []byte, pos int) (uint64, int) {
	v, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return 0, -1
	}
	return v, pos + n
}

// appendUvarintFast appends the uvarint encoding of v with open-coded
// one- and two-byte paths (the dominant widths for every column of real
// traces); wider values fall through to binary.AppendUvarint. The bytes
// produced are identical for every width.
func appendUvarintFast(dst []byte, v uint64) []byte {
	if v < 0x80 {
		return append(dst, byte(v))
	}
	if v < 0x4000 {
		return append(dst, byte(v)|0x80, byte(v>>7))
	}
	return binary.AppendUvarint(dst, v)
}

// appendZigzagFast appends the zigzag varint encoding of v through the
// open-coded fast path.
func appendZigzagFast(dst []byte, v int64) []byte {
	return appendUvarintFast(dst, uint64(v<<1)^uint64(v>>63))
}

// dictTable is an open-addressed TAC→dict-index table the column encoder
// uses in place of a Go map: linear probing over flat arrays, with
// epoch-stamped slots so resetting between blocks is one counter bump
// instead of a table clear. Load factor stays ≤ 0.5 (the table holds
// 2× the block size, and a block of n records has at most n distinct
// TACs).
type dictTable struct {
	keys []uint32
	vals []int32
	gen  []uint32
	cur  uint32
	mask uint32
}

// init sizes the table for blocks of up to perBlock records, reusing the
// arrays when already the right size.
func (t *dictTable) init(perBlock int) {
	need := 2
	for need < 2*perBlock {
		need <<= 1
	}
	if len(t.keys) != need {
		t.keys = make([]uint32, need)
		t.vals = make([]int32, need)
		t.gen = make([]uint32, need)
		t.cur = 0
		t.mask = uint32(need - 1)
	}
}

// reset invalidates every slot for the next block.
func (t *dictTable) reset() {
	t.cur++
	if t.cur == 0 { // epoch counter wrapped: do the one real clear
		clear(t.gen)
		t.cur = 1
	}
}

// slot returns the value slot for key, claiming an empty slot (value -1)
// on first sight.
func (t *dictTable) slot(key uint32) *int32 {
	x := uint64(key)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	h := uint32(x) & t.mask
	for {
		if t.gen[h] != t.cur {
			t.gen[h] = t.cur
			t.keys[h] = key
			t.vals[h] = -1
			return &t.vals[h]
		}
		if t.keys[h] == key {
			return &t.vals[h]
		}
		h = (h + 1) & t.mask
	}
}

// sortDictOrder sorts dictionary slots by descending frequency, ties
// broken by first appearance — the canonical TAC dictionary order every
// block encoder (v2 varint and v3 bitpacked alike) must produce.
func sortDictOrder(order []int32, counts []int32) {
	slices.SortFunc(order, func(a, b int32) int {
		if counts[a] != counts[b] {
			return int(counts[b] - counts[a]) // higher count first
		}
		return int(a - b) // earlier first appearance first
	})
}

// encScratch is a writer's reusable encode state. It is pooled across
// writers (partitions are written through many short-lived block
// writers), so a fresh writer starts with buffers already sized by the
// previous one's blocks and the steady-state encode path allocates
// nothing per block.
type encScratch struct {
	// cols buffers ingested rows (column-native) until a block fills.
	cols    ColumnBatch
	payload []byte
	frame   []byte
	dictTab dictTable
	tacDict []uint32
	counts  []int32
	order   []int32
	// packBuf stages the v3 encoder's values before bitpacking.
	packBuf []uint64
}

var encScratchPool = sync.Pool{New: func() any { return new(encScratch) }}

// appendBlockColumns encodes rows [lo, hi) of cb column-at-a-time onto
// dst: one sequential pass per column over a contiguous slice, the TAC
// dictionary built through the open-addressed table, and durations
// canonically quantized during the duration pass. The bytes produced are
// identical to the record-at-a-time reference encoder the byte-identity
// tests keep as their oracle.
func appendBlockColumns(dst []byte, cb *ColumnBatch, lo, hi int, minTS int64, e *encScratch) ([]byte, blockSections) {
	var secs blockSections
	// Timestamps: zigzag deltas.
	prev := minTS
	mark := len(dst)
	for _, ts := range cb.Timestamps[lo:hi] {
		dst = appendZigzagFast(dst, ts-prev)
		prev = ts
	}
	secs.tsLen = uint32(len(dst) - mark)
	// UEs.
	mark = len(dst)
	for _, ue := range cb.UEs[lo:hi] {
		dst = appendUvarintFast(dst, uint64(ue))
	}
	secs.ueLen = uint32(len(dst) - mark)
	// TAC dictionary, frequency-ordered with ties broken by first
	// appearance (a total order, so the sort algorithm is free to differ).
	tacs := cb.TACs[lo:hi]
	e.dictTab.reset()
	dict := e.tacDict[:0]
	counts := e.counts[:0]
	for _, t := range tacs {
		v := e.dictTab.slot(uint32(t))
		if *v < 0 {
			*v = int32(len(dict))
			dict = append(dict, uint32(t))
			counts = append(counts, 0)
		}
		counts[*v]++
	}
	order := e.order[:0]
	for i := range dict {
		order = append(order, int32(i))
	}
	sortDictOrder(order, counts)
	secs.dictEntries = uint32(len(dict))
	for _, old := range order {
		dst = binary.LittleEndian.AppendUint32(dst, dict[old])
	}
	for r, old := range order {
		counts[old] = int32(r) // reuse: counts become ranks
	}
	mark = len(dst)
	for _, t := range tacs {
		dst = appendUvarintFast(dst, uint64(counts[*e.dictTab.slot(uint32(t))]))
	}
	secs.idxLen = uint32(len(dst) - mark)
	e.tacDict, e.counts, e.order = dict, counts, order
	// Sectors.
	mark = len(dst)
	for _, s := range cb.Sources[lo:hi] {
		dst = appendUvarintFast(dst, uint64(s))
	}
	secs.srcLen = uint32(len(dst) - mark)
	mark = len(dst)
	for _, s := range cb.Targets[lo:hi] {
		dst = appendUvarintFast(dst, uint64(s))
	}
	secs.dstLen = uint32(len(dst) - mark)
	// Causes.
	mark = len(dst)
	for _, c := range cb.Causes[lo:hi] {
		dst = appendUvarintFast(dst, uint64(c))
	}
	secs.causeLen = uint32(len(dst) - mark)
	// Fixed-width tail. RAT pairs are stored packed in the batch exactly
	// as they are on the wire, so that column is one contiguous copy.
	dst = append(dst, cb.RATs[lo:hi]...)
	for _, res := range cb.Results[lo:hi] {
		dst = append(dst, byte(res))
	}
	for _, d := range cb.Durations[lo:hi] {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(quantizeDuration(d)))
	}
	return dst, secs
}

// WriterV2Options tunes a v2 block writer. The zero value means
// DefaultBlockRecords per block.
type WriterV2Options struct {
	// BlockRecords is the number of records per block (0 = default).
	BlockRecords int
}

// WriterV2 encodes records as a v2 columnar block stream. Rows are
// buffered in SoA (ColumnBatch) form and each block is encoded
// column-at-a-time from contiguous slices; full blocks encode straight
// from the caller's batch without an intermediate copy.
type WriterV2 struct {
	w        *bufio.Writer
	version  uint16 // VersionV2, or VersionV3 when backing a WriterV3
	perBlock int
	count    int64
	err      error
	enc      *encScratch
}

// initBlockWriter writes a block-stream header for version and
// initializes v2's buffering around it. Both the v2 and v3 writers are
// built on this machinery; only the per-block payload encoder differs.
func initBlockWriter(v2 *WriterV2, w io.Writer, version uint16, blockRecords int) error {
	perBlock := blockRecords
	if perBlock <= 0 {
		perBlock = DefaultBlockRecords
	}
	if perBlock > maxBlockRecords {
		return fmt.Errorf("trace: block size %d exceeds %d", perBlock, maxBlockRecords)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [HeaderSize]byte
	copy(hdr[0:4], Magic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], version)
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	enc := encScratchPool.Get().(*encScratch)
	enc.cols.Reset()
	enc.dictTab.init(perBlock)
	*v2 = WriterV2{w: bw, version: version, perBlock: perBlock, enc: enc}
	return nil
}

// NewWriterV2 writes a v2 stream header and returns the block writer.
func NewWriterV2(w io.Writer, opts WriterV2Options) (*WriterV2, error) {
	v2 := &WriterV2{}
	if err := initBlockWriter(v2, w, VersionV2, opts.BlockRecords); err != nil {
		return nil, err
	}
	return v2, nil
}

// Release returns the writer's pooled encode scratch (block buffer,
// payload/frame buffers, dictionary table) for reuse by the next
// writer. Call it after Flush; the writer must not be used
// afterwards. Skipping Release only costs a pool miss.
func (w *WriterV2) Release() {
	if w.enc != nil {
		encScratchPool.Put(w.enc)
		w.enc = nil
	}
}

// WriteColumns buffers a columnar batch, emitting blocks as they fill.
// Runs of whole blocks encode directly from cb's slices — no
// intermediate copy at all; only a partial leading/trailing chunk lands
// in the writer's buffer (nine contiguous column copies).
func (w *WriterV2) WriteColumns(cb *ColumnBatch) error {
	if w.err != nil {
		return w.err
	}
	n := cb.Len()
	for off := 0; off < n; {
		if w.enc.cols.Len() == 0 && n-off >= w.perBlock {
			if err := w.emitColumns(cb, off, off+w.perBlock); err != nil {
				return err
			}
			w.count += int64(w.perBlock)
			off += w.perBlock
			continue
		}
		take := min(w.perBlock-w.enc.cols.Len(), n-off)
		w.enc.cols.appendRange(cb, off, off+take)
		w.count += int64(take)
		off += take
		if w.enc.cols.Len() >= w.perBlock {
			if err := w.flushBlock(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Count returns the number of records written so far.
func (w *WriterV2) Count() int64 { return w.count }

// flushBlock encodes and emits the buffered columns as one block.
func (w *WriterV2) flushBlock() error {
	if w.enc.cols.Len() == 0 {
		return nil
	}
	if err := w.emitColumns(&w.enc.cols, 0, w.enc.cols.Len()); err != nil {
		return err
	}
	w.enc.cols.Reset()
	return nil
}

// emitColumns encodes rows [lo, hi) of cb as one block and writes it.
func (w *WriterV2) emitColumns(cb *ColumnBatch, lo, hi int) error {
	ts := cb.Timestamps[lo:hi]
	minTS, maxTS := ts[0], ts[0]
	for _, t := range ts[1:] {
		if t < minTS {
			minTS = t
		} else if t > maxTS {
			maxTS = t
		}
	}
	var secs blockSections
	if w.version == VersionV3 {
		w.enc.payload, secs = appendBlockColumnsV3(w.enc.payload[:0], cb, lo, hi, minTS, maxTS, w.enc)
	} else {
		w.enc.payload, secs = appendBlockColumns(w.enc.payload[:0], cb, lo, hi, minTS, w.enc)
	}
	return w.emitBlock(hi-lo, minTS, maxTS, secs)
}

// emitBlock writes the encoded payload in w.enc.payload as one framed
// block.
func (w *WriterV2) emitBlock(count int, minTS, maxTS int64, secs blockSections) error {
	e := w.enc
	e.frame = e.frame[:0]
	e.frame = binary.LittleEndian.AppendUint32(e.frame, uint32(count))
	e.frame = binary.LittleEndian.AppendUint64(e.frame, uint64(minTS))
	e.frame = binary.LittleEndian.AppendUint64(e.frame, uint64(maxTS))
	e.frame = binary.LittleEndian.AppendUint32(e.frame, uint32(len(e.payload))) // rawLen
	e.frame = binary.LittleEndian.AppendUint32(e.frame, uint32(len(e.payload))) // encLen
	e.frame = binary.LittleEndian.AppendUint32(e.frame, secs.tsLen)
	e.frame = binary.LittleEndian.AppendUint32(e.frame, secs.ueLen)
	e.frame = binary.LittleEndian.AppendUint32(e.frame, secs.dictEntries)
	e.frame = binary.LittleEndian.AppendUint32(e.frame, secs.idxLen)
	e.frame = binary.LittleEndian.AppendUint32(e.frame, secs.srcLen)
	e.frame = binary.LittleEndian.AppendUint32(e.frame, secs.dstLen)
	e.frame = binary.LittleEndian.AppendUint32(e.frame, secs.causeLen)
	if _, err := w.w.Write(e.frame); err != nil {
		w.err = fmt.Errorf("trace: writing block: %w", err)
		return w.err
	}
	if _, err := w.w.Write(e.payload); err != nil {
		w.err = fmt.Errorf("trace: writing block: %w", err)
		return w.err
	}
	return nil
}

// Flush emits any partial block and flushes the underlying writer.
func (w *WriterV2) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	return w.w.Flush()
}

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
	// data: the stream header plus each decoded block's descriptor and
	// payload. Pruned blocks do not count, so a full unwindowed read
	// reports exactly the stream's on-disk size.
	BytesRead int64
}
