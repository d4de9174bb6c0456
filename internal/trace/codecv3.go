package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"

	"telcolens/internal/devices"
)

// v3 block payload layout (little-endian), inside the block frame
// codec.go describes. Each variable-width column is stored as
// frame-of-reference (FOR) bitpacked words:
//
//	timestamps  width w (1 byte) | ceil(count*w/64) LE u64 words of
//	            (ts - minTS); the block descriptor's minTS is the
//	            reference, so no per-section reference is stored
//	UE          width w (1 byte) | min value (LE u32) | packed (ue - min)
//	TAC dict    raw u32 entries, most frequent first (ties in
//	            first-appearance order)
//	TAC indexes width w (1 byte) | packed dict indexes
//	source      width w (1 byte) | min value (LE u32) | packed deltas
//	target      width w (1 byte) | min value (LE u32) | packed deltas
//	cause       width w (1 byte) | packed values
//	rats        1 byte per record (srcRAT<<4 | dstRAT)
//	result      1 byte per record
//	duration    raw f32, canonically quantized (see quantizeDuration)
//
// Widths come from bits.Len64 of the column's max delta, so a constant
// column costs exactly its width byte (w=0, no words). Every packed
// section is padded to a whole 64-bit word, which lets the decoder
// unpack any value with at most two aligned 8-byte loads and no
// per-value bounds arithmetic beyond the slice checks.

// VersionV4 identifies the partition format this package reads and
// writes: the bitpacked frame-of-reference blocks that version 3
// introduced, then an end-of-blocks marker, the partition's index
// footer and its trailer (see codec.go and index.go).
const VersionV4 uint16 = 4

// packedLen returns the byte length of n values bitpacked at width w:
// whole 64-bit words, so the unpacker's two-load fast path never reads
// past the section.
func packedLen(n int, w uint8) int {
	return (n*int(w) + 63) / 64 * 8
}

// appendPacked appends vals bitpacked at width w (LSB-first within each
// LE u64 word) onto dst. Values must fit w bits. w=0 appends nothing.
func appendPacked(dst []byte, vals []uint64, w uint8) []byte {
	if w == 0 {
		return dst
	}
	need := packedLen(len(vals), w)
	mark := len(dst)
	if cap(dst) < mark+need {
		grown := make([]byte, mark, max(mark+need, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:mark+need]
	buf := dst[mark:]
	var acc uint64
	var nbits uint
	wi := 0
	for _, v := range vals {
		acc |= v << nbits
		nbits += uint(w)
		if nbits >= 64 {
			binary.LittleEndian.PutUint64(buf[wi*8:], acc)
			wi++
			nbits -= 64
			if nbits > 0 {
				acc = v >> (uint(w) - nbits)
			} else {
				acc = 0
			}
		}
	}
	if nbits > 0 {
		binary.LittleEndian.PutUint64(buf[wi*8:], acc)
	}
	return dst
}

// unpackColumn unpacks n=len(out) FOR-bitpacked values: out[i] = ref +
// packed delta. Any reconstructed value above limit rejects the block
// (limit is the column's domain bound, e.g. MaxUint32 for ids).
// words must be exactly packedLen(len(out), w) bytes, which the section
// parser guarantees; the word alignment makes the two aligned loads
// below always in-bounds.
func unpackColumn[T ~uint16 | ~uint32 | ~uint64](words []byte, w uint8, ref, limit uint64, out []T, col string) error {
	if w == 0 {
		if ref > limit {
			return fmt.Errorf("%w: %s column", ErrCorruptBlock, col)
		}
		for i := range out {
			out[i] = T(ref)
		}
		return nil
	}
	mask := uint64(1)<<w - 1
	n := len(out)
	var bad uint64
	// Fast path: one unaligned 8-byte load per value, shifted by the
	// in-byte bit offset. A 7-bit shift leaves 57 usable bits, so any
	// column width the format allows (<= 32, timestamps <= 63 fall back
	// below) decodes with a single load — no straddle branch. The load at
	// byte offset bit>>3 must stay inside words, which bounds the fast
	// prefix; the last few values use the two-aligned-load tail that the
	// word padding keeps in-bounds.
	i := 0
	bit := 0
	if w <= 57 && len(words) >= 8 {
		nFast := (8*(len(words)-8)+7)/int(w) + 1
		if nFast > n {
			nFast = n
		}
		if ref+mask <= limit {
			// No reconstructable value can exceed limit (ref is at most
			// 32 bits and mask at most 57, so the sum cannot wrap):
			// drop the per-value limit accumulator entirely.
			ww := int(w)
			for ; i+4 <= nFast; i += 4 {
				b0, b1, b2, b3 := bit, bit+ww, bit+2*ww, bit+3*ww
				out[i] = T(binary.LittleEndian.Uint64(words[b0>>3:])>>(uint(b0)&7)&mask + ref)
				out[i+1] = T(binary.LittleEndian.Uint64(words[b1>>3:])>>(uint(b1)&7)&mask + ref)
				out[i+2] = T(binary.LittleEndian.Uint64(words[b2>>3:])>>(uint(b2)&7)&mask + ref)
				out[i+3] = T(binary.LittleEndian.Uint64(words[b3>>3:])>>(uint(b3)&7)&mask + ref)
				bit += 4 * ww
			}
			for ; i < nFast; i++ {
				out[i] = T(binary.LittleEndian.Uint64(words[bit>>3:])>>(uint(bit)&7)&mask + ref)
				bit += int(w)
			}
		} else {
			ww := int(w)
			for ; i+4 <= nFast; i += 4 {
				b1, b2, b3 := bit+ww, bit+2*ww, bit+3*ww
				v0 := binary.LittleEndian.Uint64(words[bit>>3:])>>(uint(bit)&7)&mask + ref
				v1 := binary.LittleEndian.Uint64(words[b1>>3:])>>(uint(b1)&7)&mask + ref
				v2 := binary.LittleEndian.Uint64(words[b2>>3:])>>(uint(b2)&7)&mask + ref
				v3 := binary.LittleEndian.Uint64(words[b3>>3:])>>(uint(b3)&7)&mask + ref
				// branchless v > limit accumulator
				bad |= (limit - v0) >> 63
				bad |= (limit - v1) >> 63
				bad |= (limit - v2) >> 63
				bad |= (limit - v3) >> 63
				out[i] = T(v0)
				out[i+1] = T(v1)
				out[i+2] = T(v2)
				out[i+3] = T(v3)
				bit += 4 * ww
			}
			for ; i < nFast; i++ {
				v := binary.LittleEndian.Uint64(words[bit>>3:])>>(uint(bit)&7)&mask + ref
				bad |= (limit - v) >> 63
				out[i] = T(v)
				bit += int(w)
			}
		}
	}
	for ; i < n; i++ {
		word := bit >> 6
		off := uint(bit & 63)
		v := binary.LittleEndian.Uint64(words[word<<3:]) >> off
		if off+uint(w) > 64 {
			v |= binary.LittleEndian.Uint64(words[(word+1)<<3:]) << (64 - off)
		}
		v = (v & mask) + ref
		bad |= (limit - v) >> 63
		out[i] = T(v)
		bit += int(w)
	}
	if bad != 0 {
		return fmt.Errorf("%w: %s column", ErrCorruptBlock, col)
	}
	return nil
}

// packedSection parses one bitpacked section starting at payload[pos]:
// width byte, optional LE u32 reference (hasRef), then the packed
// words. The section's descriptor length must equal the width-derived
// length exactly.
func packedSection(payload []byte, pos int, secLen uint32, n int, maxWidth uint8, hasRef bool, col string) (ref uint32, w uint8, words []byte, next int, err error) {
	head := 1
	if hasRef {
		head = 5
	}
	if int(secLen) < head {
		return 0, 0, nil, 0, fmt.Errorf("%w: %s section too short", ErrCorruptBlock, col)
	}
	w = payload[pos]
	if w > maxWidth || int(secLen) != head+packedLen(n, w) {
		return 0, 0, nil, 0, fmt.Errorf("%w: %s section width %d disagrees with extent %d",
			ErrCorruptBlock, col, w, secLen)
	}
	if hasRef {
		ref = binary.LittleEndian.Uint32(payload[pos+1:])
	}
	return ref, w, payload[pos+head : pos+int(secLen)], pos + int(secLen), nil
}

// appendBlockColumns encodes rows [lo, hi) of cb as one block payload
// onto dst, column-at-a-time from contiguous slices, and records the
// section extents in d, whose timestamp bounds it reads. The TAC
// dictionary is built through the open-addressed table, and durations
// are canonically quantized during the duration pass.
func appendBlockColumns(dst []byte, cb *ColumnBatch, lo, hi int, d *blockDesc, e *encScratch) []byte {
	minTS, maxTS := d.minTS, d.maxTS
	n := hi - lo
	if cap(e.packBuf) < n {
		e.packBuf = make([]uint64, n)
	}
	vals := e.packBuf[:n]
	// Timestamps: FOR deltas from the descriptor's minTS.
	for i, ts := range cb.Timestamps[lo:hi] {
		vals[i] = uint64(ts - minTS)
	}
	w := uint8(bits.Len64(uint64(maxTS - minTS)))
	mark := len(dst)
	dst = append(dst, w)
	dst = appendPacked(dst, vals, w)
	d.tsLen = uint32(len(dst) - mark)
	// UEs: FOR deltas from the block minimum.
	dst, d.ueLen = appendU32Section(dst, cb.UEs[lo:hi], vals)
	// TAC dictionary, frequency-ordered with ties broken by first
	// appearance (a total order, so the sort algorithm is free to
	// differ), then bitpacked indexes.
	tacs := cb.TACs[lo:hi]
	e.dictTab.reset()
	dict := e.tacDict[:0]
	counts := e.counts[:0]
	for _, t := range tacs {
		v := e.dictTab.slot(uint32(t))
		if *v < 0 {
			*v = int32(len(dict))
			dict = append(dict, t)
			counts = append(counts, 0)
		}
		counts[*v]++
	}
	order := e.order[:0]
	for i := range dict {
		order = append(order, int32(i))
	}
	sortDictOrder(order, counts)
	d.dictEntries = uint32(len(dict))
	for _, old := range order {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(dict[old]))
	}
	for r, old := range order {
		counts[old] = int32(r) // reuse: counts become ranks
	}
	var maxIdx uint64
	for i, t := range tacs {
		v := uint64(counts[*e.dictTab.slot(uint32(t))])
		vals[i] = v
		if v > maxIdx {
			maxIdx = v
		}
	}
	w = uint8(bits.Len64(maxIdx))
	mark = len(dst)
	dst = append(dst, w)
	dst = appendPacked(dst, vals, w)
	d.idxLen = uint32(len(dst) - mark)
	e.tacDict, e.counts, e.order = dict, counts, order
	// Sectors: FOR deltas from each column's block minimum.
	dst, d.srcLen = appendU32Section(dst, cb.Sources[lo:hi], vals)
	dst, d.dstLen = appendU32Section(dst, cb.Targets[lo:hi], vals)
	// Causes: packed from zero (codes are small).
	var maxCause uint64
	for i, c := range cb.Causes[lo:hi] {
		vals[i] = uint64(c)
		if uint64(c) > maxCause {
			maxCause = uint64(c)
		}
	}
	w = uint8(bits.Len64(maxCause))
	mark = len(dst)
	dst = append(dst, w)
	dst = appendPacked(dst, vals, w)
	d.causeLen = uint32(len(dst) - mark)
	// Fixed-width tail. RAT pairs are stored packed in the batch exactly
	// as they are on the wire, so that column is one contiguous copy.
	dst = append(dst, cb.RATs[lo:hi]...)
	for _, res := range cb.Results[lo:hi] {
		dst = append(dst, byte(res))
	}
	for _, d := range cb.Durations[lo:hi] {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(quantizeDuration(d)))
	}
	return dst
}

// appendU32Section appends one FOR-bitpacked u32 column section
// (width byte | LE u32 min | packed deltas) and returns the new slice
// and the section length. vals is caller scratch of at least len(col).
func appendU32Section[T ~uint32](dst []byte, col []T, vals []uint64) ([]byte, uint32) {
	ref := uint32(col[0])
	maxV := uint32(col[0])
	for _, v := range col {
		if uint32(v) < ref {
			ref = uint32(v)
		}
		if uint32(v) > maxV {
			maxV = uint32(v)
		}
	}
	for i, v := range col {
		vals[i] = uint64(uint32(v) - ref)
	}
	w := uint8(bits.Len64(uint64(maxV - ref)))
	mark := len(dst)
	dst = append(dst, w)
	dst = binary.LittleEndian.AppendUint32(dst, ref)
	dst = appendPacked(dst, vals[:len(col)], w)
	return dst, uint32(len(dst) - mark)
}

// appendBlockFrame encodes rows [lo, hi) of cb as one block frame onto
// dst: the descriptor, then the payload. It returns the descriptor too.
func appendBlockFrame(dst []byte, cb *ColumnBatch, lo, hi int, e *encScratch) ([]byte, blockDesc) {
	ts := cb.Timestamps[lo:hi]
	d := blockDesc{count: hi - lo, minTS: ts[0], maxTS: ts[0]}
	for _, t := range ts[1:] {
		if t < d.minTS {
			d.minTS = t
		} else if t > d.maxTS {
			d.maxTS = t
		}
	}
	// The payload's length is known only once it is encoded: reserve the
	// descriptor's bytes, then write it over them in place.
	mark := len(dst)
	dst = append(dst, make([]byte, blockHeadSize)...)
	dst = appendBlockColumns(dst, cb, lo, hi, &d, e)
	d.size = len(dst) - mark - blockHeadSize
	appendBlockDesc(dst[mark:mark], d)
	return dst, d
}

// AppendBlock appends cb's rows to dst as one block frame, the
// descriptor and payload a partition stores a block as, and returns the
// extended slice. Durations are quantized on the way (see
// DurationCode). A batch must hold 1 to MaxBlockRecords rows: a count
// of 0 is the end-of-blocks marker, not a block.
func AppendBlock(dst []byte, cb *ColumnBatch) ([]byte, error) {
	n := cb.Len()
	if n == 0 || n > MaxBlockRecords {
		return dst, fmt.Errorf("trace: a block holds 1 to %d records, not %d", MaxBlockRecords, n)
	}
	e := encScratchPool.Get().(*encScratch)
	e.dictTab.init(n)
	dst, _ = appendBlockFrame(dst, cb, 0, n, e)
	encScratchPool.Put(e)
	return dst, nil
}

// DecodeBlock decodes p, which must hold exactly one block frame, into
// cb, replacing its rows. The descriptor and sections pass the checks
// the partition Reader makes, and p must be the very bytes AppendBlock
// writes for the rows it decodes to: a frame that decodes re-encodes to
// itself. Anything else is ErrTruncated (p is shorter than a
// descriptor) or ErrCorruptBlock.
func DecodeBlock(p []byte, cb *ColumnBatch) error {
	if len(p) < blockHeadSize {
		return fmt.Errorf("%w: %d-byte block frame", ErrTruncated, len(p))
	}
	d, err := parseBlockDesc(p[:blockHeadSize])
	if err != nil {
		return err
	}
	if len(p) != blockHeadSize+d.size {
		return fmt.Errorf("%w: %d-byte block frame, descriptor says %d", ErrCorruptBlock, len(p), blockHeadSize+d.size)
	}
	e := encScratchPool.Get().(*encScratch)
	defer encScratchPool.Put(e)
	if err := decodeBlockColumns(p[blockHeadSize:], &d, AllColumns, cb, &e.tacDict); err != nil {
		return err
	}
	e.dictTab.init(d.count)
	if e.frame, _ = appendBlockFrame(e.frame[:0], cb, 0, d.count, e); !bytes.Equal(e.frame, p) {
		return fmt.Errorf("%w: not the canonical encoding of its records", ErrCorruptBlock)
	}
	return nil
}

// decodeBlockColumns decodes the payload of the block d describes
// straight into the SoA ColumnBatch layout, honoring the column
// projection (timestamps are always decoded; skipped sections are
// jumped without reading). cb is resized to d.count; columns outside
// proj hold unspecified values.
func decodeBlockColumns(payload []byte, d *blockDesc, proj ColumnSet, cb *ColumnBatch, dictScratch *[]devices.TAC) error {
	if proj == 0 {
		proj = AllColumns
	}
	minTS, maxTS, n := d.minTS, d.maxTS, d.count
	cb.resize(n)
	// Timestamps: FOR from minTS; a delta past maxTS rejects the block.
	_, w, words, pos, err := packedSection(payload, 0, d.tsLen, n, 63, false, "timestamp")
	if err != nil {
		return err
	}
	maxDelta := uint64(maxTS - minTS)
	tsCol := cb.Timestamps
	if w == 0 {
		for i := range tsCol {
			tsCol[i] = minTS
		}
	} else {
		mask := uint64(1)<<w - 1
		var bad uint64
		i := 0
		// Same single-load fast prefix as unpackColumn; widths above 57
		// bits (legal for timestamps) take the two-load tail throughout.
		if w <= 57 && len(words) >= 8 {
			nFast := (8*(len(words)-8)+7)/int(w) + 1
			if nFast > n {
				nFast = n
			}
			bit := 0
			ww := int(w)
			for ; i+4 <= nFast; i += 4 {
				b1, b2, b3 := bit+ww, bit+2*ww, bit+3*ww
				v0 := binary.LittleEndian.Uint64(words[bit>>3:]) >> (uint(bit) & 7) & mask
				v1 := binary.LittleEndian.Uint64(words[b1>>3:]) >> (uint(b1) & 7) & mask
				v2 := binary.LittleEndian.Uint64(words[b2>>3:]) >> (uint(b2) & 7) & mask
				v3 := binary.LittleEndian.Uint64(words[b3>>3:]) >> (uint(b3) & 7) & mask
				bad |= (maxDelta - v0) >> 63
				bad |= (maxDelta - v1) >> 63
				bad |= (maxDelta - v2) >> 63
				bad |= (maxDelta - v3) >> 63
				tsCol[i] = minTS + int64(v0)
				tsCol[i+1] = minTS + int64(v1)
				tsCol[i+2] = minTS + int64(v2)
				tsCol[i+3] = minTS + int64(v3)
				bit += 4 * ww
			}
			for ; i < nFast; i++ {
				v := binary.LittleEndian.Uint64(words[bit>>3:]) >> (uint(bit) & 7) & mask
				bad |= (maxDelta - v) >> 63
				tsCol[i] = minTS + int64(v)
				bit += int(w)
			}
		}
		bit := i * int(w)
		for ; i < n; i++ {
			word := bit >> 6
			off := uint(bit & 63)
			v := binary.LittleEndian.Uint64(words[word<<3:]) >> off
			if off+uint(w) > 64 {
				v |= binary.LittleEndian.Uint64(words[(word+1)<<3:]) << (64 - off)
			}
			v &= mask
			bad |= (maxDelta - v) >> 63
			tsCol[i] = minTS + int64(v)
			bit += int(w)
		}
		if bad != 0 {
			return fmt.Errorf("%w: timestamp outside block bounds", ErrCorruptBlock)
		}
	}
	// UE.
	if proj&ColUE != 0 {
		ref, w, words, next, err := packedSection(payload, pos, d.ueLen, n, 32, true, "ue")
		if err != nil {
			return err
		}
		if err := unpackColumn(words, w, uint64(ref), math.MaxUint32, cb.UEs, "ue"); err != nil {
			return err
		}
		pos = next
	} else {
		pos += int(d.ueLen)
	}
	// TAC dictionary and indexes.
	dictLen := uint64(d.dictEntries)
	if proj&ColTAC != 0 {
		if cap(*dictScratch) < int(dictLen) {
			*dictScratch = make([]devices.TAC, dictLen)
		}
		dict := (*dictScratch)[:dictLen]
		for i := range dict {
			dict[i] = devices.TAC(binary.LittleEndian.Uint32(payload[pos+i*4:]))
		}
		pos += int(dictLen) * 4
		_, w, words, next, err := packedSection(payload, pos, d.idxLen, n, 32, false, "tac index")
		if err != nil {
			return err
		}
		if dictLen == 0 {
			return fmt.Errorf("%w: tac index column", ErrCorruptBlock)
		}
		if err := unpackColumn(words, w, 0, dictLen-1, cb.TACs, "tac index"); err != nil {
			return err
		}
		tacCol := cb.TACs
		for i := range tacCol {
			tacCol[i] = dict[tacCol[i]]
		}
		pos = next
	} else {
		pos += int(dictLen)*4 + int(d.idxLen)
	}
	// Sectors.
	if proj&ColSectors != 0 {
		ref, w, words, next, err := packedSection(payload, pos, d.srcLen, n, 32, true, "source")
		if err != nil {
			return err
		}
		if err := unpackColumn(words, w, uint64(ref), math.MaxUint32, cb.Sources, "source"); err != nil {
			return err
		}
		pos = next
		ref, w, words, next, err = packedSection(payload, pos, d.dstLen, n, 32, true, "target")
		if err != nil {
			return err
		}
		if err := unpackColumn(words, w, uint64(ref), math.MaxUint32, cb.Targets, "target"); err != nil {
			return err
		}
		pos = next
	} else {
		pos += int(d.srcLen) + int(d.dstLen)
	}
	// Cause.
	if proj&ColCause != 0 {
		_, w, words, next, err := packedSection(payload, pos, d.causeLen, n, 16, false, "cause")
		if err != nil {
			return err
		}
		if err := unpackColumn(words, w, 0, math.MaxUint16, cb.Causes, "cause"); err != nil {
			return err
		}
		pos = next
	} else {
		pos += int(d.causeLen)
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
// arrays when they are already large enough (the table's size changes
// where keys land, never the dictionary it builds).
func (t *dictTable) init(perBlock int) {
	need := 2
	for need < 2*perBlock {
		need <<= 1
	}
	if len(t.keys) < need {
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
// broken by first appearance — the canonical TAC dictionary order.
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
	cols ColumnBatch
	// frame holds the block frame being written, or the footer.
	frame   []byte
	dictTab dictTable
	tacDict []devices.TAC
	counts  []int32
	order   []int32
	// packBuf stages a column's values before bitpacking.
	packBuf []uint64
	// idx builds the partition's index footer block by block.
	idx *indexBuilder
}

var encScratchPool = sync.Pool{New: func() any { return new(encScratch) }}

// WriterV3Options tunes a v3 block writer. The zero value means
// DefaultBlockRecords per block.
type WriterV3Options struct {
	// BlockRecords is the number of records per block (0 = default).
	BlockRecords int
}

// WriterV3 encodes records as a partition stream: the v3 bitpacked
// blocks it is named for, then, on Flush, the end-of-blocks marker and
// the index footer it builds while it encodes. Rows are buffered in SoA
// (ColumnBatch) form and each block is encoded column-at-a-time from
// contiguous slices; full blocks encode straight from the caller's
// batch without an intermediate copy.
type WriterV3 struct {
	w        *bufio.Writer
	perBlock int
	count    int64
	err      error
	enc      *encScratch
}

// errWriterFlushed is what a writer returns for records written after
// Flush ended its stream.
var errWriterFlushed = errors.New("trace: write after the stream's footer")

// NewWriterV3 writes a stream header and returns the block writer.
func NewWriterV3(w io.Writer, opts WriterV3Options) (*WriterV3, error) {
	perBlock := opts.BlockRecords
	if perBlock <= 0 {
		perBlock = DefaultBlockRecords
	}
	if perBlock > MaxBlockRecords {
		return nil, fmt.Errorf("trace: block size %d exceeds %d", perBlock, MaxBlockRecords)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [HeaderSize]byte
	copy(hdr[0:4], Magic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], VersionV4)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	enc := encScratchPool.Get().(*encScratch)
	enc.cols.Reset()
	enc.dictTab.init(perBlock)
	if enc.idx == nil {
		enc.idx = newIndexBuilder(perBlock)
	}
	enc.idx.reset()
	return &WriterV3{w: bw, perBlock: perBlock, enc: enc}, nil
}

// WriterV2Options is WriterV3Options under the name of the retired v2
// writer's options.
//
// Deprecated: use WriterV3Options; v2 streams are no longer written or
// read.
type WriterV2Options = WriterV3Options

// NewWriterV2 returns a v3 block writer, exactly as NewWriterV3 does.
//
// Deprecated: use NewWriterV3; v2 streams are no longer written or
// read.
func NewWriterV2(w io.Writer, opts WriterV2Options) (*WriterV3, error) {
	return NewWriterV3(w, opts)
}

// Release returns the writer's pooled encode scratch (block buffer,
// payload/frame buffers, dictionary table) for reuse by the next
// writer. Call it after Flush; the writer must not be used
// afterwards. Skipping Release only costs a pool miss.
func (w *WriterV3) Release() {
	if w.enc != nil {
		encScratchPool.Put(w.enc)
		w.enc = nil
	}
}

// WriteColumns buffers a columnar batch, emitting blocks as they fill.
// Runs of whole blocks encode directly from cb's slices — no
// intermediate copy at all; only a partial leading/trailing chunk lands
// in the writer's buffer (nine contiguous column copies).
func (w *WriterV3) WriteColumns(cb *ColumnBatch) error {
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
func (w *WriterV3) Count() int64 { return w.count }

// flushBlock encodes and emits the buffered columns as one block.
func (w *WriterV3) flushBlock() error {
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
func (w *WriterV3) emitColumns(cb *ColumnBatch, lo, hi int) error {
	var d blockDesc
	w.enc.frame, d = appendBlockFrame(w.enc.frame[:0], cb, lo, hi, w.enc)
	w.enc.idx.addBlock(cb, lo, hi, d.minTS, d.maxTS)
	if _, err := w.w.Write(w.enc.frame); err != nil {
		w.err = fmt.Errorf("trace: writing block: %w", err)
		return w.err
	}
	return nil
}

// Flush emits any partial block, ends the stream with the end-of-blocks
// marker, the index footer and the trailer, and flushes the underlying
// writer. The stream is then complete: later writes and flushes fail.
func (w *WriterV3) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.flushBlock(); err != nil {
		return err
	}
	w.enc.frame = w.enc.idx.finish(w.enc.frame[:0])
	if _, err := w.w.Write(w.enc.frame); err != nil {
		w.err = fmt.Errorf("trace: writing index footer: %w", err)
		return w.err
	}
	w.err = errWriterFlushed
	return w.w.Flush()
}
