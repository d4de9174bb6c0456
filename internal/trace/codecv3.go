package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"telcolens/internal/devices"
)

// v3 bitpacked block stream layout (little-endian), negotiated by the
// same 8-byte header as v2 (magic "TLHO" | version=3 u16 | flags=0 u16)
// and framed by the same 56-byte block descriptor, so readers prune,
// filter and skip v3 blocks exactly as they do v2 blocks. v3 is the
// only format any program writes.
//
// Where v2 stores one varint per value, v3 stores each variable-width
// column as frame-of-reference (FOR) bitpacked words:
//
//	timestamps  width w (1 byte) | ceil(count*w/64) LE u64 words of
//	            (ts - minTS); the block descriptor's minTS is the
//	            reference, so no per-section reference is stored
//	UE          width w (1 byte) | min value (LE u32) | packed (ue - min)
//	TAC dict    raw u32 entries, frequency-ordered exactly as v2
//	TAC indexes width w (1 byte) | packed dict indexes
//	source      width w (1 byte) | min value (LE u32) | packed deltas
//	target      width w (1 byte) | min value (LE u32) | packed deltas
//	cause       width w (1 byte) | packed values
//	rats        1 byte per record (srcRAT<<4 | dstRAT), as v2
//	result      1 byte per record, as v2
//	duration    raw f32, canonically quantized, as v2
//
// Widths come from bits.Len64 of the column's max delta, so a constant
// column costs exactly its width byte (w=0, no words). Every packed
// section is padded to a whole 64-bit word, which lets the decoder
// unpack any value with at most two aligned 8-byte loads and no
// per-value bounds arithmetic beyond the slice checks.
//
// The fixed-width tail is byte-identical to v2 (including the duration
// quantizer), so a record decoded from a v3 stream is bit-identical to
// the same record decoded from a v2 stream — the cross-codec artifact
// byte-identity invariant carries over unchanged.

// VersionV3 identifies the bitpacked frame-of-reference block stream
// format.
const VersionV3 uint16 = 3

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

// v3Section parses one bitpacked section starting at payload[pos]:
// width byte, optional LE u32 reference (hasRef), then the packed
// words. The section's descriptor length must equal the width-derived
// length exactly.
func v3Section(payload []byte, pos int, secLen uint32, n int, maxWidth uint8, hasRef bool, col string) (ref uint32, w uint8, words []byte, next int, err error) {
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

// appendBlockColumnsV3 encodes rows [lo, hi) of cb as one v3 block
// payload onto dst. The TAC dictionary order and the fixed-width tail
// are byte-identical to the v2 encoder over the same records; only the
// variable-width sections differ (FOR bitpacking instead of varints).
func appendBlockColumnsV3(dst []byte, cb *ColumnBatch, lo, hi int, minTS, maxTS int64, e *encScratch) ([]byte, blockSections) {
	var secs blockSections
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
	secs.tsLen = uint32(len(dst) - mark)
	// UEs: FOR deltas from the block minimum.
	dst, secs.ueLen = appendU32SectionV3(dst, cb.UEs[lo:hi], vals)
	// TAC dictionary, frequency-ordered exactly as the v2 encoder (same
	// dictTable machinery), then bitpacked indexes.
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
	secs.idxLen = uint32(len(dst) - mark)
	e.tacDict, e.counts, e.order = dict, counts, order
	// Sectors: FOR deltas from each column's block minimum.
	dst, secs.srcLen = appendU32SectionV3(dst, cb.Sources[lo:hi], vals)
	dst, secs.dstLen = appendU32SectionV3(dst, cb.Targets[lo:hi], vals)
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
	secs.causeLen = uint32(len(dst) - mark)
	// Fixed-width tail, byte-identical to v2.
	dst = append(dst, cb.RATs[lo:hi]...)
	for _, res := range cb.Results[lo:hi] {
		dst = append(dst, byte(res))
	}
	for _, d := range cb.Durations[lo:hi] {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(quantizeDuration(d)))
	}
	return dst, secs
}

// appendU32SectionV3 appends one FOR-bitpacked u32 column section
// (width byte | LE u32 min | packed deltas) and returns the new slice
// and the section length. vals is caller scratch of at least len(col).
func appendU32SectionV3[T ~uint32](dst []byte, col []T, vals []uint64) ([]byte, uint32) {
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

// decodeBlockColumnsV3 decodes a v3 block payload straight into the SoA
// ColumnBatch layout, honoring the column projection (timestamps are
// always decoded; skipped sections are jumped without reading).
func decodeBlockColumnsV3(payload []byte, minTS, maxTS int64, secs blockSections, proj ColumnSet, count int, cb *ColumnBatch, dictScratch *[]devices.TAC) error {
	if proj == 0 {
		proj = AllColumns
	}
	cb.resize(count)
	n := count
	// Timestamps: FOR from minTS; a delta past maxTS rejects the block.
	_, w, words, pos, err := v3Section(payload, 0, secs.tsLen, n, 63, false, "timestamp")
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
		ref, w, words, next, err := v3Section(payload, pos, secs.ueLen, n, 32, true, "ue")
		if err != nil {
			return err
		}
		if err := unpackColumn(words, w, uint64(ref), math.MaxUint32, cb.UEs, "ue"); err != nil {
			return err
		}
		pos = next
	} else {
		pos += int(secs.ueLen)
	}
	// TAC dictionary and indexes.
	dictLen := uint64(secs.dictEntries)
	if proj&ColTAC != 0 {
		if cap(*dictScratch) < int(dictLen) {
			*dictScratch = make([]devices.TAC, dictLen)
		}
		dict := (*dictScratch)[:dictLen]
		for i := range dict {
			dict[i] = devices.TAC(binary.LittleEndian.Uint32(payload[pos+i*4:]))
		}
		pos += int(dictLen) * 4
		_, w, words, next, err := v3Section(payload, pos, secs.idxLen, n, 32, false, "tac index")
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
		pos += int(dictLen)*4 + int(secs.idxLen)
	}
	// Sectors.
	if proj&ColSectors != 0 {
		ref, w, words, next, err := v3Section(payload, pos, secs.srcLen, n, 32, true, "source")
		if err != nil {
			return err
		}
		if err := unpackColumn(words, w, uint64(ref), math.MaxUint32, cb.Sources, "source"); err != nil {
			return err
		}
		pos = next
		ref, w, words, next, err = v3Section(payload, pos, secs.dstLen, n, 32, true, "target")
		if err != nil {
			return err
		}
		if err := unpackColumn(words, w, uint64(ref), math.MaxUint32, cb.Targets, "target"); err != nil {
			return err
		}
		pos = next
	} else {
		pos += int(secs.srcLen) + int(secs.dstLen)
	}
	// Cause.
	if proj&ColCause != 0 {
		_, w, words, next, err := v3Section(payload, pos, secs.causeLen, n, 16, false, "cause")
		if err != nil {
			return err
		}
		if err := unpackColumn(words, w, 0, math.MaxUint16, cb.Causes, "cause"); err != nil {
			return err
		}
		pos = next
	} else {
		pos += int(secs.causeLen)
	}
	// Fixed-width tail, identical to v2.
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

// WriterV3Options tunes a v3 block writer. The zero value means
// DefaultBlockRecords per block.
type WriterV3Options struct {
	// BlockRecords is the number of records per block (0 = default).
	BlockRecords int
}

// WriterV3 encodes records as a v3 bitpacked block stream. It shares
// the v2 writer's columnar row buffering; only the per-block payload
// encoding and the stream header differ.
type WriterV3 struct {
	w2 WriterV2
}

// NewWriterV3 writes a v3 stream header and returns the block writer.
func NewWriterV3(w io.Writer, opts WriterV3Options) (*WriterV3, error) {
	w3 := &WriterV3{}
	if err := initBlockWriter(&w3.w2, w, VersionV3, opts.BlockRecords); err != nil {
		return nil, err
	}
	return w3, nil
}

// WriteColumns buffers a columnar batch, emitting blocks as they fill;
// runs of whole blocks encode directly from cb's slices.
func (w *WriterV3) WriteColumns(cb *ColumnBatch) error { return w.w2.WriteColumns(cb) }

// Count returns the number of records written so far.
func (w *WriterV3) Count() int64 { return w.w2.Count() }

// Flush emits any partial block and flushes the underlying writer.
func (w *WriterV3) Flush() error { return w.w2.Flush() }

// Release returns the writer's pooled encode scratch for reuse; call it
// after Flush. The writer must not be used afterwards.
func (w *WriterV3) Release() { w.w2.Release() }
