package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// bloomFrom builds the filter over a distinct-key slice.
func bloomFrom(keys []uint32) *Bloom {
	var b Bloom
	b.fill(keys)
	return &b
}

func TestBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint32, 0, 5000)
	seen := make(map[uint32]bool)
	for len(keys) < cap(keys) {
		k := rng.Uint32()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	b := bloomFrom(keys)
	for _, k := range keys {
		if !b.MayContain(k) {
			t.Fatalf("false negative for inserted key %d", k)
		}
	}
}

// TestBloomFalsePositiveRate pins the sizing budget: with >= 16 bits
// per distinct key and k=6 probes, the measured FPR over keys never
// inserted must stay well under 1%.
func TestBloomFalsePositiveRate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nKeys = 4096
	inserted := make(map[uint32]bool, nKeys)
	keys := make([]uint32, 0, nKeys)
	for len(keys) < nKeys {
		k := rng.Uint32() % 1_000_000
		if !inserted[k] {
			inserted[k] = true
			keys = append(keys, k)
		}
	}
	b := bloomFrom(keys)
	probes, fps := 0, 0
	for k := uint32(1_000_001); k < 1_101_001; k++ {
		probes++
		if b.MayContain(k) {
			fps++
		}
	}
	if rate := float64(fps) / float64(probes); rate > 0.01 {
		t.Fatalf("false positive rate %.4f over %d probes, want < 0.01 (%d bits for %d keys)",
			rate, probes, len(b.words)*64, nKeys)
	}
}

// TestBloomDeterministic asserts the stored bits are a function of the
// key set, not insertion order — index bytes must be reproducible.
func TestBloomDeterministic(t *testing.T) {
	keys := []uint32{5, 900, 31, 77, 12345, 8}
	a := bloomFrom(keys)
	rev := make([]uint32, len(keys))
	for i, k := range keys {
		rev[len(keys)-1-i] = k
	}
	b := bloomFrom(rev)
	for i := range a.words {
		if a.words[i] != b.words[i] {
			t.Fatalf("word %d differs across insertion orders", i)
		}
	}
}

// encodeIndex encodes x as an index footer and its trailer, field by
// field as index.go lays them out: the oracle the writer's footers and
// any decoded footer's bytes are held to.
func encodeIndex(x *PartitionIndex) []byte {
	dst := binary.LittleEndian.AppendUint32(nil, uint32(len(x.Blocks)))
	dst = appendBloom(dst, x.UEs)
	dst = appendBloom(dst, x.TACs)
	dst = appendBloom(dst, x.Sectors)
	for i := range x.Blocks {
		bs := &x.Blocks[i]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(bs.Count))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(bs.MinTS))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(bs.MaxTS))
		dst = appendBloom(dst, bs.UEs)
		dst = appendBloom(dst, bs.TACs)
	}
	return appendTrailer(dst, 0)
}

// footerBytes returns the index footer and trailer that end a stream.
func footerBytes(t testing.TB, data []byte) []byte {
	t.Helper()
	n, err := footerLen(data)
	if err != nil {
		t.Fatal(err)
	}
	return data[len(data)-TrailerSize-n:]
}

func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := StudyStart.UnixMilli()
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = randRecord(rng, base)
	}
	data := encodeV3(t, recs, WriterV3Options{BlockRecords: 128})
	dec, err := DecodeIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(dec.Blocks), (1000+127)/128; got != want {
		t.Fatalf("block summaries = %d, want %d", got, want)
	}
	if tail := footerBytes(t, data); !bytes.Equal(encodeIndex(dec), tail) {
		t.Fatal("decoded footer re-encodes to other bytes")
	}
	// No false negatives through the full encode/decode cycle, at both
	// granularities.
	for i := range recs {
		rec := &recs[i]
		if !dec.MayContainUE(rec.UE) || !dec.MayContainTAC(uint32(rec.TAC)) ||
			!dec.MayContainSector(uint32(rec.Source)) || !dec.MayContainSector(uint32(rec.Target)) {
			t.Fatalf("record %d: partition-level false negative", i)
		}
		bs := &dec.Blocks[i/128]
		if !bs.UEs.MayContain(uint32(rec.UE)) || !bs.TACs.MayContain(uint32(rec.TAC)) {
			t.Fatalf("record %d: block-level false negative", i)
		}
		if rec.Timestamp < bs.MinTS || rec.Timestamp > bs.MaxTS {
			t.Fatalf("record %d: timestamp %d outside block extents [%d, %d]",
				i, rec.Timestamp, bs.MinTS, bs.MaxTS)
		}
	}
}

func TestIndexDecodeRejectsDamage(t *testing.T) {
	rec := randRecord(rand.New(rand.NewSource(1)), StudyStart.UnixMilli())
	data := footerBytes(t, encodeV3(t, []Record{rec}, WriterV3Options{BlockRecords: 64}))

	if _, err := DecodeIndex(data[len(data)-10:]); !errors.Is(err, ErrIndexCorrupt) {
		t.Fatalf("truncated index: err = %v, want ErrIndexCorrupt", err)
	}
	flip := bytes.Clone(data)
	flip[len(flip)/2] ^= 0xff
	if _, err := DecodeIndex(flip); !errors.Is(err, ErrIndexCorrupt) {
		t.Fatalf("bit-flipped index: err = %v, want ErrIndexCorrupt", err)
	}
	outside := bytes.Clone(data)
	binary.LittleEndian.PutUint32(outside[len(outside)-TrailerSize:], uint32(len(data)))
	if _, err := DecodeIndex(outside); !errors.Is(err, ErrIndexCorrupt) {
		t.Fatalf("footer length past the data: err = %v, want ErrIndexCorrupt", err)
	}
}

// resealIndex recomputes a footer's trailing checksum after a test has
// patched it, so the damage reaches the parser.
func resealIndex(data []byte) []byte {
	body := data[:len(data)-8]
	return binary.LittleEndian.AppendUint64(body, fnv1a(body))
}

// TestIndexDecodeBoundsBlockCount patches a valid footer's block count
// to just under maxIndexBlocks: the decoder must refuse it from the
// bytes present instead of first allocating ~168 MB of summaries.
func TestIndexDecodeBoundsBlockCount(t *testing.T) {
	rec := randRecord(rand.New(rand.NewSource(1)), StudyStart.UnixMilli())
	data := bytes.Clone(footerBytes(t, encodeV3(t, []Record{rec}, WriterV3Options{BlockRecords: 64})))
	binary.LittleEndian.PutUint32(data[0:4], maxIndexBlocks-1)
	data = resealIndex(data)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeIndex(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrIndexCorrupt) {
		t.Fatalf("lying block count: err = %v, want ErrIndexCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoder allocated %d bytes for a %d-byte footer", grew, len(data))
	}
}

// TestFileStoreWritesIndex asserts every write granularity (one record
// per call, ragged batches, one whole batch) ends the partition with an
// aligned index footer, found from the MANIFEST entry alone, and that
// its block summaries agree with the stream's descriptors.
func TestFileStoreWritesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := StudyStart.UnixMilli()
	recs := make([]Record, 700)
	for i := range recs {
		recs[i] = randRecord(rng, base)
	}
	chunks := map[string]int{"record": 1, "batch": 97, "columns": len(recs)}
	for _, mode := range []string{"record", "batch", "columns"} {
		t.Run(mode, func(t *testing.T) {
			fs, err := NewFileStoreOpts(t.TempDir(), FileStoreOptions{BlockRecords: 256})
			if err != nil {
				t.Fatal(err)
			}
			w, err := fs.AppendPartition(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(recs); off += chunks[mode] {
				if err := writeRecords(w, recs[off:min(off+chunks[mode], len(recs))]...); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			m, err := fs.Manifest()
			if err != nil {
				t.Fatalf("manifest unusable: %v", err)
			}
			pi, ok := m.Lookup(Partition{Day: 0, Shard: 0})
			if !ok {
				t.Fatal("partition not in the manifest")
			}
			idx, err := fs.PartitionIndex(pi)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(idx.Blocks), (len(recs)+255)/256; got != want {
				t.Fatalf("block summaries = %d, want %d", got, want)
			}
			it, err := fs.OpenPartition(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			var cb ColumnBatch
			for b := range idx.Blocks {
				n, err := it.NextColumns(&cb)
				if err != nil {
					t.Fatal(err)
				}
				bs := &idx.Blocks[b]
				lo, hi := cb.Timestamps[0], cb.Timestamps[0]
				for _, ts := range cb.Timestamps {
					lo, hi = min(lo, ts), max(hi, ts)
				}
				if bs.Count != n || bs.MinTS != lo || bs.MaxTS != hi {
					t.Fatalf("block %d summary %d records [%d, %d], stream %d records [%d, %d]",
						b, bs.Count, bs.MinTS, bs.MaxTS, n, lo, hi)
				}
			}
			if n, err := it.NextColumns(&cb); n != 0 || err != nil {
				t.Fatalf("stream goes on past the summarized blocks: %d, %v", n, err)
			}
		})
	}
}

// TestReaderBlockFilter asserts SetBlockFilter prunes exactly the
// vetoed blocks, counts them as filtered (not skipped), and that
// ordinals align with the index builder's summaries.
func TestReaderBlockFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := StudyStart.UnixMilli()
	const perBlock = 64
	recs := make([]Record, perBlock*5)
	for i := range recs {
		recs[i] = randRecord(rng, base)
	}
	fs, err := NewFileStoreOpts(t.TempDir(), FileStoreOptions{BlockRecords: perBlock})
	if err != nil {
		t.Fatal(err)
	}
	writePartition(t, fs, 0, 0, recs)

	it, err := fs.OpenPartition(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	it.SetBlockFilter(func(b int) bool { return b == 2 })
	got, err := readRecords(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != perBlock {
		t.Fatalf("decoded %d records, want the %d of block 2", len(got), perBlock)
	}
	for i := range got {
		if got[i] != recs[2*perBlock+i] {
			t.Fatalf("record %d differs from block 2's content", i)
		}
	}
	bs := it.ReadStats()
	if bs.BlocksRead != 1 || bs.BlocksFiltered != 4 || bs.BlocksSkipped != 0 {
		t.Fatalf("stats = %+v, want 1 read / 4 filtered / 0 skipped", bs)
	}
}
