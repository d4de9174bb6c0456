package trace

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"telcolens/internal/faultfs"
)

// The partition secondary index: a small ".tlix" sidecar written next
// to each partition file, holding partition-level bloom filters over
// the UE, TAC and sector columns plus a per-block summary (record
// count, timestamp extents, UE and TAC blooms) aligned with the
// stream's block layout. The query layer uses it to prune partitions
// and blocks before a single payload byte is decoded; the sidecar is
// strictly an accelerator — an absent, stale or corrupt index degrades
// to the scan path, never to a wrong answer.
//
// Layout (little-endian):
//
//	magic "TLIX" | version u16 | flags u16 | fingerprint u64 |
//	blockRecords u32 | blockCount u32 |
//	partition UE bloom | partition TAC bloom | partition sector bloom |
//	blockCount × (count u32 | minTS i64 | maxTS i64 | UE bloom | TAC bloom) |
//	checksum u64 (FNV-1a over all preceding bytes)
//
// where each bloom serializes as: k u8 | words u32 | words × u64.
// The fingerprint must equal the partition's manifest/stream
// fingerprint; loaders reject a mismatch so a rewritten partition can
// never be served through a stale index. blockRecords is the writer's
// records-per-block setting. (Sidecars of v1 streams, which had no
// blocks, stored 0 and no block summaries; their streams no longer
// decode, so such a sidecar never matters.)

// IndexVersionCurrent is the sidecar format version this package
// writes. Loaders return ErrIndexVersion for newer versions so old
// binaries fall back to scanning rather than misreading the file.
const IndexVersionCurrent = 1

// IndexSuffix is the sidecar file extension, appended to the partition
// file name (ho_day_003_s001.tlho -> ho_day_003_s001.tlho.tlix is NOT
// the scheme; the .tlho suffix is replaced: ho_day_003_s001.tlix).
const IndexSuffix = ".tlix"

var indexMagic = [4]byte{'T', 'L', 'I', 'X'}

// Index decode errors. All of them mean "treat the partition as
// unindexed", not "fail the query".
var (
	ErrIndexCorrupt = fmt.Errorf("trace: corrupt partition index")
	ErrIndexVersion = fmt.Errorf("trace: unsupported partition index version")
)

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

// newBloom sizes a filter for the given number of distinct keys.
func newBloom(distinct int) *Bloom {
	bitsWanted := distinct * bloomBitsPerKey
	if bitsWanted < bloomMinBits {
		bitsWanted = bloomMinBits
	}
	nbits := 1 << bits.Len(uint(bitsWanted-1)) // next power of two
	return &Bloom{k: bloomK, words: make([]uint64, nbits/64)}
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

// bloomFrom builds a filter from a distinct-key slice.
func bloomFrom(keys []uint32) *Bloom {
	b := newBloom(len(keys))
	for _, k := range keys {
		b.add(k)
	}
	return b
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

// PartitionIndex is a decoded .tlix sidecar. Partition-level filters
// cover every record; Blocks aligns 1:1 with the stream's blocks in
// stream order.
type PartitionIndex struct {
	// Version is the decoded sidecar format version.
	Version uint16
	// Fingerprint is the indexed partition's content fingerprint; it
	// must match the MANIFEST entry or the index is stale.
	Fingerprint uint64
	// BlockRecords is the writer's records-per-block setting.
	BlockRecords int
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

// encodeIndex serializes a PartitionIndex to sidecar bytes.
func encodeIndex(x *PartitionIndex) []byte {
	buf := make([]byte, 0, 256)
	buf = append(buf, indexMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, x.Version)
	buf = binary.LittleEndian.AppendUint16(buf, 0) // flags
	buf = binary.LittleEndian.AppendUint64(buf, x.Fingerprint)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.BlockRecords))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x.Blocks)))
	buf = appendBloom(buf, x.UEs)
	buf = appendBloom(buf, x.TACs)
	buf = appendBloom(buf, x.Sectors)
	for i := range x.Blocks {
		bs := &x.Blocks[i]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(bs.Count))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(bs.MinTS))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(bs.MaxTS))
		buf = appendBloom(buf, bs.UEs)
		buf = appendBloom(buf, bs.TACs)
	}
	return binary.LittleEndian.AppendUint64(buf, fnv1a(buf))
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

// DecodeIndex parses sidecar bytes. Newer format versions and any set
// flag return ErrIndexVersion, structural damage ErrIndexCorrupt;
// callers treat both as "no index". The block list is sized only after
// the bytes left for it could hold that many summaries, so a lying
// header cannot make the decoder allocate more than the input implies.
func DecodeIndex(data []byte) (*PartitionIndex, error) {
	if len(data) < 24+8 || [4]byte(data[0:4]) != indexMagic {
		return nil, ErrIndexCorrupt
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if fnv1a(body) != sum {
		return nil, ErrIndexCorrupt
	}
	x := &PartitionIndex{
		Version:      binary.LittleEndian.Uint16(data[4:6]),
		Fingerprint:  binary.LittleEndian.Uint64(data[8:16]),
		BlockRecords: int(binary.LittleEndian.Uint32(data[16:20])),
	}
	// No flag is defined; a flagged sidecar is a format this package
	// does not read, like a flagged stream.
	if x.Version != IndexVersionCurrent || binary.LittleEndian.Uint16(data[6:8]) != 0 {
		return nil, ErrIndexVersion
	}
	nBlocks := binary.LittleEndian.Uint32(data[20:24])
	if nBlocks > maxIndexBlocks {
		return nil, ErrIndexCorrupt
	}
	rest := body[24:]
	var err error
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

// writeIndexFile persists an index sidecar with the same atomic
// stage + fsync + rename + dir-fsync discipline as the MANIFEST (see
// faultfs.WriteFileAtomic) — the sidecar must be durable before the
// manifest entry that advertises it lands.
func writeIndexFile(fsys faultfs.FS, path string, x *PartitionIndex) error {
	data := encodeIndex(x)
	if err := faultfs.WriteFileAtomic(fsys, path, data, 0o644); err != nil {
		return fmt.Errorf("trace: index: %w", err)
	}
	return nil
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

// indexBuilder accumulates a PartitionIndex while a partition is being
// written. The writer wrappers feed it every record's (ts, ue, tac,
// source, target); block boundaries are replicated from the block
// writer's rule — a block seals exactly every perBlock records, with a final
// partial block at flush — so summaries align 1:1 with the stream's
// blocks without touching the encoder.
type indexBuilder struct {
	perBlock int

	fill      int
	curMin    int64
	curMax    int64
	blockUEs  *keySet
	blockTACs *keySet
	partUEs   *keySet
	partTACs  *keySet
	partSects *keySet
	blocks    []BlockSummary
}

func newIndexBuilder(perBlock int) *indexBuilder {
	return &indexBuilder{
		perBlock:  perBlock,
		blockUEs:  newKeySet(perBlock),
		blockTACs: newKeySet(64),
		partUEs:   newKeySet(1024),
		partTACs:  newKeySet(256),
		partSects: newKeySet(256),
	}
}

// observe folds one record into the builder.
func (b *indexBuilder) observe(ts int64, ue, tac, src, dst uint32) {
	b.partUEs.add(ue)
	b.partTACs.add(tac)
	b.partSects.add(src)
	b.partSects.add(dst)
	if b.fill == 0 {
		b.curMin, b.curMax = ts, ts
	} else {
		if ts < b.curMin {
			b.curMin = ts
		}
		if ts > b.curMax {
			b.curMax = ts
		}
	}
	b.blockUEs.add(ue)
	b.blockTACs.add(tac)
	b.fill++
	if b.fill == b.perBlock {
		b.sealBlock()
	}
}

// observeColumns folds a columnar batch row by row (same effect as
// observe per row, without materializing records).
func (b *indexBuilder) observeColumns(cb *ColumnBatch) {
	for i, ts := range cb.Timestamps {
		b.observe(ts, uint32(cb.UEs[i]), uint32(cb.TACs[i]), uint32(cb.Sources[i]), uint32(cb.Targets[i]))
	}
}

// sealBlock closes the current block summary.
func (b *indexBuilder) sealBlock() {
	b.blocks = append(b.blocks, BlockSummary{
		Count: b.fill,
		MinTS: b.curMin,
		MaxTS: b.curMax,
		UEs:   bloomFrom(b.blockUEs.keys),
		TACs:  bloomFrom(b.blockTACs.keys),
	})
	b.blockUEs.reset()
	b.blockTACs.reset()
	b.fill = 0
}

// finish seals any partial block and materializes the index with the
// partition's content fingerprint.
func (b *indexBuilder) finish(fingerprint uint64) *PartitionIndex {
	if b.fill > 0 {
		b.sealBlock()
	}
	return &PartitionIndex{
		Version:      IndexVersionCurrent,
		Fingerprint:  fingerprint,
		BlockRecords: b.perBlock,
		UEs:          bloomFrom(b.partUEs.keys),
		TACs:         bloomFrom(b.partTACs.keys),
		Sectors:      bloomFrom(b.partSects.keys),
		Blocks:       b.blocks,
	}
}
