package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

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

func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := newIndexBuilder(128)
	base := StudyStart.UnixMilli()
	var recs []Record
	for i := 0; i < 1000; i++ {
		rec := randRecord(rng, base)
		recs = append(recs, rec)
		b.observe(rec.Timestamp, uint32(rec.UE), uint32(rec.TAC), uint32(rec.Source), uint32(rec.Target))
	}
	idx := b.finish(0xdeadbeef)
	if got, want := len(idx.Blocks), (1000+127)/128; got != want {
		t.Fatalf("block summaries = %d, want %d", got, want)
	}
	data := encodeIndex(idx)
	dec, err := DecodeIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Fingerprint != 0xdeadbeef || dec.BlockRecords != 128 || len(dec.Blocks) != len(idx.Blocks) {
		t.Fatalf("decoded header mismatch: %+v", dec)
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
	b := newIndexBuilder(64)
	b.observe(StudyStart.UnixMilli(), 1, 2, 3, 4)
	data := encodeIndex(b.finish(42))

	if _, err := DecodeIndex(data[:10]); err == nil {
		t.Fatal("truncated index decoded")
	}
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0xff
	if _, err := DecodeIndex(flip); err == nil {
		t.Fatal("bit-flipped index decoded")
	}
	future := append([]byte(nil), data...)
	future[4] = 99 // version field
	if _, err := DecodeIndex(future); err == nil {
		t.Fatal("future-versioned index decoded")
	}
}

// resealIndex recomputes a sidecar's trailing checksum after a test has
// patched its body, so the damage reaches the parser.
func resealIndex(data []byte) []byte {
	body := data[:len(data)-8]
	return binary.LittleEndian.AppendUint64(body, fnv1a(body))
}

// TestIndexDecodeBoundsBlockCount patches a valid sidecar's block count
// to just under maxIndexBlocks: the decoder must refuse it from the
// bytes present instead of first allocating ~168 MB of summaries.
func TestIndexDecodeBoundsBlockCount(t *testing.T) {
	b := newIndexBuilder(64)
	b.observe(StudyStart.UnixMilli(), 1, 2, 3, 4)
	data := bytes.Clone(encodeIndex(b.finish(42)))
	binary.LittleEndian.PutUint32(data[20:24], maxIndexBlocks-1)
	data = resealIndex(data)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeIndex(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrIndexCorrupt) {
		t.Fatalf("lying block count: err = %v, want ErrIndexCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoder allocated %d bytes for a %d-byte sidecar", grew, len(data))
	}
}

// TestIndexDecodeRejectsFlags sets a flag on a valid sidecar. No flag is
// defined, so the decoder must treat it as a format it cannot read.
func TestIndexDecodeRejectsFlags(t *testing.T) {
	b := newIndexBuilder(64)
	b.observe(StudyStart.UnixMilli(), 1, 2, 3, 4)
	data := bytes.Clone(encodeIndex(b.finish(42)))
	binary.LittleEndian.PutUint16(data[6:8], 1)
	data = resealIndex(data)
	if _, err := DecodeIndex(data); !errors.Is(err, ErrIndexVersion) {
		t.Fatalf("flagged sidecar: err = %v, want ErrIndexVersion", err)
	}
}

// TestFileStoreWritesIndex asserts every write granularity (one record
// per call, ragged batches, one whole batch) emits an aligned sidecar,
// that the manifest advertises it, and that its block summaries agree
// with the stream's descriptors.
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
			idx, err := fs.PartitionIndex(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if idx == nil {
				t.Fatal("no index sidecar written")
			}
			if got, want := len(idx.Blocks), (len(recs)+255)/256; got != want {
				t.Fatalf("block summaries = %d, want %d", got, want)
			}
			m, err := fs.Manifest()
			if err != nil {
				t.Fatalf("manifest unusable: %v", err)
			}
			pi, ok := m.Lookup(Partition{Day: 0, Shard: 0})
			if !ok || pi.IndexVersion != IndexVersionCurrent {
				t.Fatalf("manifest entry index version = %d, want %d", pi.IndexVersion, IndexVersionCurrent)
			}
			if idx.Fingerprint != pi.Fingerprint {
				t.Fatalf("index fingerprint %x != manifest %x", idx.Fingerprint, pi.Fingerprint)
			}
			total := 0
			for _, bs := range idx.Blocks {
				total += bs.Count
			}
			if total != len(recs) {
				t.Fatalf("block counts sum to %d, want %d", total, len(recs))
			}
		})
	}
}

// TestFileStoreMissingSidecar: a partition whose .tlix sidecar is gone
// (deleted or lost after the write) loads no index, and still reads in
// full.
func TestFileStoreMissingSidecar(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := randRecord(rand.New(rand.NewSource(1)), StudyStart.UnixMilli())
	writePartition(t, fs, 0, 0, []Record{rec})
	if idx, err := fs.PartitionIndex(0, 0); err != nil || idx == nil {
		t.Fatalf("fresh partition index = %v, %v", idx, err)
	}
	if err := os.Remove(fs.indexPath(0, 0)); err != nil {
		t.Fatal(err)
	}
	if idx, err := fs.PartitionIndex(0, 0); err != nil || idx != nil {
		t.Fatalf("index without a sidecar = %v, %v; want nil, nil", idx, err)
	}
	it, err := fs.OpenPartition(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got, err := readRecords(it)
	if err != nil || len(got) != 1 || got[0].UE != rec.UE {
		t.Fatalf("read %v, %v; want the one written record", got, err)
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
