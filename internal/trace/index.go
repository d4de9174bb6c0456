package trace

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// The partition index: partition-level bloom filters over the UE, TAC
// and sector columns plus a per-block summary (record count, timestamp
// extents, UE and TAC blooms) aligned with the stream's blocks. The
// stream writer builds it while it encodes and stores it as the
// partition's footer, after the end-of-blocks marker (see codec.go).
// The query layer uses it to prune partitions and blocks before a
// single payload byte is decoded; it is strictly an accelerator: a
// footer that does not decode degrades to the scan path, never to a
// wrong answer.
//
// Footer and trailer layout (little-endian):
//
//	footer:  blockCount u32 |
//	         partition UE bloom | partition TAC bloom | partition sector bloom |
//	         blockCount × (count u32 | minTS i64 | maxTS i64 | UE bloom | TAC bloom)
//	trailer: footerLen u32 | checksum u64 (FNV-1a over the footer and footerLen)
//
// where each bloom serializes as: k u8 | words u32 | words × u64. The
// trailer ends the file, so a reader that knows the partition's size
// (the MANIFEST entry's Bytes) finds the footer with two reads of the
// tail. An index inside its partition cannot go stale: the MANIFEST
// fingerprint covers it with the blocks.

// IndexSuffix was the file extension of the separate index sidecar that
// partitions carried before the index became their footer. No file
// carries it any more; the name stays for callers outside this module.
const IndexSuffix = ".tlix"

// TrailerSize is the length of the fixed trailer that ends every
// partition file.
const TrailerSize = 4 + 8

// ErrIndexCorrupt is what decoding a damaged index footer returns. It
// means "treat the partition as unindexed", not "fail the query".
var ErrIndexCorrupt = fmt.Errorf("trace: corrupt partition index")

// bloomK is the number of probes per key. With the sizing rule below
// (>= 16 bits per distinct key) the false-positive rate lands around
// 2^-6 ≈ 1.5% worst case and ~0.1% at the rounded-up typical load; the
// FPR bound test pins the measured rate.
const bloomK = 6

// bloomMinBits floors the filter size so tiny blocks still serialize
// to a couple of machine words.
const bloomMinBits = 256

// bloomBitsPerKey is the sizing budget: bits = nextPow2(16 × distinct).
const bloomBitsPerKey = 16

// Bloom is a fixed-size bloom filter over uint32 keys (UE IDs, TACs,
// sector IDs). Membership is approximate in one direction only:
// MayContain never returns false for an inserted key. Insertion order
// does not affect the stored bits, so index bytes are a deterministic
// function of the key set.
type Bloom struct {
	k     uint8
	words []uint64 // len is a power of two (bits/64), or 0 for the empty filter
}

// fill makes b the filter over keys, a distinct-key slice, sized by
// their count and reusing b's words.
func (b *Bloom) fill(keys []uint32) {
	bitsWanted := max(len(keys)*bloomBitsPerKey, bloomMinBits)
	n := (1 << bits.Len(uint(bitsWanted-1))) / 64 // next power of two
	if cap(b.words) < n {
		b.words = make([]uint64, n)
	}
	b.k, b.words = bloomK, b.words[:n]
	clear(b.words)
	for _, k := range keys {
		b.add(k)
	}
}

// bloomMix is the 64-bit finalizer (same family as ShardOf) expanding a
// key into the two independent hashes double hashing needs.
func bloomMix(key uint32) (h1, h2 uint64) {
	x := uint64(key)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x, (x >> 32) | 1 // odd step so probes cover the table
}

// add inserts a key.
func (b *Bloom) add(key uint32) {
	if len(b.words) == 0 {
		return
	}
	mask := uint64(len(b.words)*64 - 1)
	h1, h2 := bloomMix(key)
	for i := 0; i < int(b.k); i++ {
		bit := (h1 + uint64(i)*h2) & mask
		b.words[bit>>6] |= 1 << (bit & 63)
	}
}

// MayContain reports whether key may have been inserted. False means
// definitely absent; true may be a false positive (see bloomK for the
// budget).
func (b *Bloom) MayContain(key uint32) bool {
	if b == nil || len(b.words) == 0 {
		return false
	}
	mask := uint64(len(b.words)*64 - 1)
	h1, h2 := bloomMix(key)
	for i := 0; i < int(b.k); i++ {
		bit := (h1 + uint64(i)*h2) & mask
		if b.words[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// appendBloom serializes a filter: k u8 | words u32 | words × u64.
func appendBloom(dst []byte, b *Bloom) []byte {
	dst = append(dst, b.k)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.words)))
	for _, w := range b.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// maxBloomWords bounds a serialized filter to 2^26 bits (8 MiB), far
// above anything the sizing rule produces, so a corrupt length field
// cannot trigger a huge allocation.
const maxBloomWords = 1 << 20

// readBloom decodes a filter and returns the remaining bytes.
func readBloom(src []byte) (*Bloom, []byte, error) {
	if len(src) < 5 {
		return nil, nil, ErrIndexCorrupt
	}
	k := src[0]
	words := binary.LittleEndian.Uint32(src[1:5])
	src = src[5:]
	if words > maxBloomWords || words&(words-1) != 0 && words != 0 {
		return nil, nil, ErrIndexCorrupt
	}
	if len(src) < int(words)*8 {
		return nil, nil, ErrIndexCorrupt
	}
	b := &Bloom{k: k, words: make([]uint64, words)}
	for i := range b.words {
		b.words[i] = binary.LittleEndian.Uint64(src[i*8:])
	}
	return b, src[int(words)*8:], nil
}

// BlockSummary is one block's index entry: its record count and
// timestamp extents (mirroring the block descriptor, so pruning needs
// no stream access) plus bloom filters over its UE and TAC columns.
type BlockSummary struct {
	Count        int
	MinTS, MaxTS int64
	UEs          *Bloom
	TACs         *Bloom
}

// PartitionIndex is a decoded index footer. Partition-level filters
// cover every record; Blocks aligns 1:1 with the stream's blocks in
// stream order.
type PartitionIndex struct {
	// UEs/TACs/Sectors are partition-level membership filters; Sectors
	// covers both source and target sector IDs.
	UEs, TACs, Sectors *Bloom
	// Blocks summarizes each block in stream order.
	Blocks []BlockSummary
}

// MayContainUE reports whether any record of the partition may carry ue.
func (x *PartitionIndex) MayContainUE(ue UEID) bool { return x.UEs.MayContain(uint32(ue)) }

// MayContainTAC reports whether any record may carry tac.
func (x *PartitionIndex) MayContainTAC(tac uint32) bool { return x.TACs.MayContain(tac) }

// MayContainSector reports whether any record may have sec as source or
// target sector.
func (x *PartitionIndex) MayContainSector(sec uint32) bool { return x.Sectors.MayContain(sec) }

// appendTrailer ends the footer that starts at dst[start] with its
// trailer.
func appendTrailer(dst []byte, start int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dst)-start))
	return binary.LittleEndian.AppendUint64(dst, fnv1a(dst[start:]))
}

// fnv1a hashes p with 64-bit FNV-1a (the same function the manifest
// fingerprint uses).
func fnv1a(p []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// maxIndexBlocks bounds the decoded block list; a partition holds at
// most a day of records, so this is generous.
const maxIndexBlocks = 1 << 22

// minBlockSummaryBytes is the smallest serialized block summary: the
// count and time extents, then two empty blooms of k u8 | words u32.
const minBlockSummaryBytes = 4 + 8 + 8 + 2*5

// footerLen returns the footer length the trailer ending data records,
// or ErrIndexCorrupt when data cannot hold that footer before its
// trailer.
func footerLen(data []byte) (int, error) {
	if len(data) < TrailerSize {
		return 0, ErrIndexCorrupt
	}
	n := uint64(binary.LittleEndian.Uint32(data[len(data)-TrailerSize:]))
	if n > uint64(len(data)-TrailerSize) {
		return 0, ErrIndexCorrupt
	}
	return int(n), nil
}

// DecodeIndex parses the index footer that ends data: the footer and
// trailer of a partition, or of a whole partition file. Any damage
// returns ErrIndexCorrupt, which callers treat as "no index". The
// block list is sized only after the bytes left for it could hold that
// many summaries, so a lying count cannot make the decoder allocate
// more than the input implies.
func DecodeIndex(data []byte) (*PartitionIndex, error) {
	n, err := footerLen(data)
	if err != nil {
		return nil, err
	}
	end := len(data) - 8
	body := data[end-4-n : end]
	if fnv1a(body) != binary.LittleEndian.Uint64(data[end:]) || n < 4 {
		return nil, ErrIndexCorrupt
	}
	nBlocks := binary.LittleEndian.Uint32(body[0:4])
	rest := body[4:n]
	if nBlocks > maxIndexBlocks {
		return nil, ErrIndexCorrupt
	}
	x := &PartitionIndex{}
	if x.UEs, rest, err = readBloom(rest); err != nil {
		return nil, err
	}
	if x.TACs, rest, err = readBloom(rest); err != nil {
		return nil, err
	}
	if x.Sectors, rest, err = readBloom(rest); err != nil {
		return nil, err
	}
	if uint64(nBlocks)*minBlockSummaryBytes > uint64(len(rest)) {
		return nil, ErrIndexCorrupt
	}
	x.Blocks = make([]BlockSummary, nBlocks)
	for i := range x.Blocks {
		bs := &x.Blocks[i]
		if len(rest) < 20 {
			return nil, ErrIndexCorrupt
		}
		bs.Count = int(binary.LittleEndian.Uint32(rest[0:4]))
		bs.MinTS = int64(binary.LittleEndian.Uint64(rest[4:12]))
		bs.MaxTS = int64(binary.LittleEndian.Uint64(rest[12:20]))
		rest = rest[20:]
		if bs.UEs, rest, err = readBloom(rest); err != nil {
			return nil, err
		}
		if bs.TACs, rest, err = readBloom(rest); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, ErrIndexCorrupt
	}
	return x, nil
}

// keySet tracks the distinct uint32 keys seen so far via an epoch-
// stamped open-addressed table (the dictTable pattern): Reset is a
// counter bump, probes touch warm memory, and Keys returns the
// distinct values in first-seen order for deterministic bloom builds.
type keySet struct {
	slots []uint32 // key per slot
	marks []uint32 // epoch the slot was last written
	epoch uint32
	keys  []uint32 // distinct keys, first-seen order
}

func newKeySet(capacity int) *keySet {
	n := 1 << bits.Len(uint(capacity*2-1)) // ≥2× load headroom, power of two
	if n < 16 {
		n = 16
	}
	return &keySet{slots: make([]uint32, n), marks: make([]uint32, n), epoch: 1}
}

// add inserts key if unseen this epoch and reports whether it was new.
func (s *keySet) add(key uint32) bool {
	mask := uint32(len(s.slots) - 1)
	h1, _ := bloomMix(key)
	i := uint32(h1) & mask
	for {
		if s.marks[i] != s.epoch {
			s.slots[i] = key
			s.marks[i] = s.epoch
			s.keys = append(s.keys, key)
			if len(s.keys)*2 >= len(s.slots) {
				s.grow()
			}
			return true
		}
		if s.slots[i] == key {
			return false
		}
		i = (i + 1) & mask
	}
}

// grow doubles the table and re-seats the current epoch's keys.
func (s *keySet) grow() {
	n := len(s.slots) * 2
	slots := make([]uint32, n)
	marks := make([]uint32, n)
	mask := uint32(n - 1)
	for _, key := range s.keys {
		h1, _ := bloomMix(key)
		i := uint32(h1) & mask
		for marks[i] == 1 {
			i = (i + 1) & mask
		}
		slots[i] = key
		marks[i] = 1
	}
	s.slots, s.marks, s.epoch = slots, marks, 1
}

// reset clears the set in O(1) (epoch bump; wraps rezero the marks).
func (s *keySet) reset() {
	s.keys = s.keys[:0]
	s.epoch++
	if s.epoch == 0 {
		clear(s.marks)
		s.epoch = 1
	}
}

// indexBuilder accumulates a partition's index while its stream is
// encoded: the writer hands it each block's rows as it emits the block,
// so the summaries align 1:1 with the stream's blocks. It lives in the
// writer's pooled encode scratch and encodes each summary as its block
// seals, so a warm builder allocates nothing per block.
type indexBuilder struct {
	blockUEs  *keySet
	blockTACs *keySet
	partUEs   *keySet
	partTACs  *keySet
	partSects *keySet
	nBlocks   int
	summaries []byte // the block summaries encoded so far
	filter    Bloom  // scratch each bloom is built in before it is encoded
}

func newIndexBuilder(perBlock int) *indexBuilder {
	return &indexBuilder{
		blockUEs:  newKeySet(perBlock),
		blockTACs: newKeySet(64),
		partUEs:   newKeySet(1024),
		partTACs:  newKeySet(256),
		partSects: newKeySet(256),
	}
}

// reset empties the builder for the next partition.
func (b *indexBuilder) reset() {
	b.partUEs.reset()
	b.partTACs.reset()
	b.partSects.reset()
	b.nBlocks = 0
	b.summaries = b.summaries[:0]
}

// appendBloomOf appends the serialized filter over keys to dst.
func (b *indexBuilder) appendBloomOf(dst []byte, keys []uint32) []byte {
	b.filter.fill(keys)
	return appendBloom(dst, &b.filter)
}

// addBlock folds rows [lo, hi) of cb, one block with the given time
// extents, into the index.
func (b *indexBuilder) addBlock(cb *ColumnBatch, lo, hi int, minTS, maxTS int64) {
	for i := lo; i < hi; i++ {
		ue, tac := uint32(cb.UEs[i]), uint32(cb.TACs[i])
		b.blockUEs.add(ue)
		b.blockTACs.add(tac)
		b.partUEs.add(ue)
		b.partTACs.add(tac)
		b.partSects.add(uint32(cb.Sources[i]))
		b.partSects.add(uint32(cb.Targets[i]))
	}
	b.summaries = binary.LittleEndian.AppendUint32(b.summaries, uint32(hi-lo))
	b.summaries = binary.LittleEndian.AppendUint64(b.summaries, uint64(minTS))
	b.summaries = binary.LittleEndian.AppendUint64(b.summaries, uint64(maxTS))
	b.summaries = b.appendBloomOf(b.summaries, b.blockUEs.keys)
	b.summaries = b.appendBloomOf(b.summaries, b.blockTACs.keys)
	b.nBlocks++
	b.blockUEs.reset()
	b.blockTACs.reset()
}

// finish appends the end-of-blocks marker, the index footer and its
// trailer to dst.
func (b *indexBuilder) finish(dst []byte) []byte {
	dst = append(dst, endOfBlocks[:]...)
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.nBlocks))
	dst = b.appendBloomOf(dst, b.partUEs.keys)
	dst = b.appendBloomOf(dst, b.partTACs.keys)
	dst = b.appendBloomOf(dst, b.partSects.keys)
	dst = append(dst, b.summaries...)
	return appendTrailer(dst, start)
}
