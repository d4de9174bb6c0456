package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzDecodeBlock feeds arbitrary bytes to the block decoder through
// the public Reader, and the headers of retired formats to its header
// check. Truncated frames, lying bit widths, oversized counts, lying
// payload lengths and a damaged end-of-blocks marker must all surface
// as errors — never as panics or unbounded allocations.
func FuzzDecodeBlock(f *testing.F) {
	// Seed corpus: valid streams across block sizes plus targeted
	// corruptions, each also under the retired v2 header.
	r := rand.New(rand.NewSource(1))
	base := StudyStart.UnixMilli()
	for _, n := range []int{1, 5, 130, 700} {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = randRecord(r, base)
		}
		for _, blockRecords := range []int{3, 64} {
			data := encodeV3(f, recs, WriterV3Options{BlockRecords: blockRecords})
			countFlip := bytes.Clone(data)
			countFlip[HeaderSize] ^= 0x7f
			n, err := footerLen(data)
			if err != nil {
				f.Fatal(err)
			}
			lastFlip := bytes.Clone(data) // the end-of-blocks marker
			lastFlip[len(data)-TrailerSize-n-len(endOfBlocks)] ^= 0xff
			widthFlip := bytes.Clone(data)
			widthFlip[HeaderSize+blockHeadSize] ^= 0x7f // the first section's width byte
			for _, seed := range [][]byte{
				data,
				data[:len(data)-1],
				data[:HeaderSize+blockHeadSize-2],
				countFlip,
				lastFlip,
				widthFlip,
			} {
				f.Add(seed)
				// The same bytes under a v2 header: refused at the header.
				retired := bytes.Clone(seed)
				retired[4] = 2
				f.Add(retired)
			}
		}
	}
	// Column-written streams with degenerate column shapes (constant
	// timestamps, single-entry TAC dictionary).
	var cb ColumnBatch
	cb.resize(96)
	for i := range cb.Timestamps {
		cb.Timestamps[i] = base
		cb.UEs[i] = UEID(i)
		cb.TACs[i] = 35_000_001
		cb.Sources[i] = 7
		cb.Targets[i] = 9
		cb.RATs[i] = 0x32
		cb.Durations[i] = 12.5
	}
	var buf bytes.Buffer
	w, err := NewWriterV3(&buf, WriterV3Options{BlockRecords: 64})
	if err != nil {
		f.Fatal(err)
	}
	if err := w.WriteColumns(&cb); err != nil {
		f.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	retired := bytes.Clone(buf.Bytes())
	retired[4] = 2
	f.Add(retired)
	f.Add([]byte{})
	f.Add([]byte("TLHO"))
	f.Add(append([]byte("TLHO"), 4, 0, 0, 0))
	f.Add(append([]byte("TLHO"), 1, 0, 0, 0)) // v1: must reject
	f.Add(append([]byte("TLHO"), 2, 0, 0, 0)) // v2: must reject
	f.Add(append([]byte("TLHO"), 2, 0, 1, 0)) // v2 + flate: must reject
	f.Add(append([]byte("TLHO"), 3, 0, 1, 0)) // v3 + flate: must reject
	f.Add(append([]byte("TLHO"), 3, 0, 2, 0)) // v3 + TLZ: must reject
	f.Add(append([]byte("TLHO"), 3, 0, 3, 0)) // both flags: must reject
	f.Add(append([]byte("TLHO"), 3, 0, 0, 0)) // v3 with a sidecar: must reject

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			// A whole header naming any other version is refused as one.
			if len(data) >= HeaderSize && [4]byte(data[:4]) == Magic &&
				binary.LittleEndian.Uint16(data[4:6]) != VersionV4 && !errors.Is(err, ErrBadVersion) {
				t.Fatalf("version %d header: err = %v, want ErrBadVersion", binary.LittleEndian.Uint16(data[4:6]), err)
			}
			return
		}
		// Every call that succeeds consumes at least one block, so the
		// loop ends; the terminal condition must be one of
		// the codec's declared error kinds (or a wrapped form of them).
		var cb ColumnBatch
		for {
			_, err := rd.NextColumns(&cb)
			if err == nil {
				continue
			}
			if err != io.EOF && err != ErrTruncated && !errors.Is(err, ErrCorruptBlock) {
				t.Fatalf("undeclared error kind: %v", err)
			}
			break
		}
	})
}

// FuzzDecodeIndex feeds arbitrary index footers to DecodeIndex, seeded
// from the footers real streams end with. Each input is sealed with its
// length and a valid FNV-1a checksum first, so it reaches the parser
// instead of stopping at the trailer. The decoder must never panic, and
// any footer it accepts must re-encode to exactly the bytes it was
// given.
func FuzzDecodeIndex(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	base := StudyStart.UnixMilli()
	for _, n := range []int{0, 1, 70, 300} {
		for _, perBlock := range []int{16, 128} {
			recs := make([]Record, n)
			for i := range recs {
				recs[i] = randRecord(r, base)
			}
			data := encodeV3(f, recs, WriterV3Options{BlockRecords: perBlock})
			fl, err := footerLen(data)
			if err != nil {
				f.Fatal(err)
			}
			footer := data[len(data)-TrailerSize-fl : len(data)-TrailerSize]
			f.Add(bytes.Clone(footer))
			f.Add(bytes.Clone(footer[:len(footer)-1]))
			mut := bytes.Clone(footer)
			mut[0] ^= 0x40 // block count
			f.Add(mut)
			mut = bytes.Clone(footer)
			mut[5] ^= 0x01 // the partition UE bloom's word count
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, footer []byte) {
		data := binary.LittleEndian.AppendUint32(bytes.Clone(footer), uint32(len(footer)))
		data = binary.LittleEndian.AppendUint64(data, fnv1a(data))
		x, err := DecodeIndex(data)
		if err != nil {
			if !errors.Is(err, ErrIndexCorrupt) {
				t.Fatalf("undeclared error kind: %v", err)
			}
			return
		}
		if again := encodeIndex(x); !bytes.Equal(again, data) {
			t.Fatalf("accepted footer re-encodes to %d different bytes (input %d)", len(again), len(data))
		}
	})
}

// FuzzLoadManifest feeds arbitrary MANIFEST bodies to the loader. It
// must never panic, and any manifest it accepts must satisfy the
// checks a reader relies on, re-encode through the writer's encoding
// and reload to the same manifest.
func FuzzLoadManifest(f *testing.F) {
	s := tempStore(f)
	for _, p := range []Partition{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		writeTestPartition(f, s, p.Day, p.Shard, 3+p.Shard)
	}
	m, err := s.Manifest()
	if err != nil {
		f.Fatal(err)
	}
	valid, err := encodeManifest(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, mutate := range []func(*Manifest){
		func(m *Manifest) { m.Partitions[1] = m.Partitions[0] },                                   // duplicate
		func(m *Manifest) { m.Partitions[0], m.Partitions[3] = m.Partitions[3], m.Partitions[0] }, // order
		func(m *Manifest) { m.Partitions[3].Day = 1000 },
		func(m *Manifest) { m.Partitions[2].Shard = -1 },
		func(m *Manifest) { m.Partitions[0].Records = -1 },
		func(m *Manifest) { m.Partitions[1].Bytes = -5 },
		func(m *Manifest) {
			m.Partitions[2].MinTS, m.Partitions[2].MaxTS = m.Partitions[2].MaxTS+1, m.Partitions[2].MinTS
		},
	} {
		bad := Manifest{Gen: m.Gen, Partitions: append([]PartitionInfo(nil), m.Partitions...)}
		mutate(&bad)
		data, err := encodeManifest(&bad)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, body := range []string{"", "null", "{}", `{"gen":3,"partitions":[]}`, `{"partitions":[{"day":1e3}]}`} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		for i := range m.Partitions {
			pi := &m.Partitions[i]
			if checkPartitionKey(pi.Day, pi.Shard) != nil || pi.Records < 0 || pi.Bytes < 0 ||
				(pi.Records > 0 && pi.MinTS > pi.MaxTS) ||
				(i > 0 && !m.Partitions[i-1].Partition().Less(pi.Partition())) {
				t.Fatalf("accepted entry %d: %+v", i, *pi)
			}
		}
		again, err := encodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeManifest(again)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("manifest changed across re-encode:\n%+v\n%+v", m, back)
		}
	})
}
