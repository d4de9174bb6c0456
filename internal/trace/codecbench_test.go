package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

var benchBlockRecords = DefaultBlockRecords

func benchStream(b *testing.B) ([]byte, int) {
	r := rand.New(rand.NewSource(5))
	const n = 200_000
	recs := make([]Record, n)
	base := StudyStart.UnixMilli()
	for i := range recs {
		recs[i] = randRecord(r, base)
		recs[i].Timestamp = base + int64(i)*700 // sorted, like real partitions
		recs[i].UE = UEID(i % 20_000)           // sequential id space, like generation
	}
	var cb ColumnBatch
	cb.FromRecords(recs)
	var buf bytes.Buffer
	w, err := NewWriterV3(&buf, WriterV3Options{BlockRecords: benchBlockRecords})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.WriteColumns(&cb); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), n
}

func BenchmarkDecodeStreamV3(b *testing.B) {
	data, n := benchStream(b)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	var cb ColumnBatch
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for {
			k, err := r.NextColumns(&cb)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			total += k
		}
		if total != n {
			b.Fatalf("decoded %d", total)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkUnpackColumn isolates the v3 bitpacked column decoder — the
// hottest loop of a v3 full scan — at representative widths.
func BenchmarkUnpackColumn(b *testing.B) {
	const n = 4096
	vals := make([]uint64, n)
	out := make([]uint32, n)
	r := rand.New(rand.NewSource(7))
	for _, w := range []uint8{9, 15, 21, 32} {
		mask := uint64(1)<<w - 1
		for i := range vals {
			vals[i] = r.Uint64() & mask
		}
		words := appendPacked(nil, vals, w)
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				if err := unpackColumn(words, w, 0, (1<<32)-1, out, "bench"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mvalues/s")
		})
	}
}
