package analysis

import (
	"bytes"
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"telcolens/internal/simulate"
)

// allNeeds lists every scan-state unit with a printable name.
var allNeeds = []struct {
	name string
	need Need
}{
	{"types", NeedTypes},
	{"durations", NeedDurations},
	{"causes", NeedCauses},
	{"temporal", NeedTemporal},
	{"districts", NeedDistricts},
	{"ueday", NeedUEDay},
	{"sectorday", NeedSectorDay},
	{"pingpong", NeedPingPong},
}

// encodeUnit returns one unit's state encoding, header included.
func encodeUnit(need Need, col collector) []byte {
	e := &enc{}
	encodeState(e, need, col)
	return e.b
}

// TestCollectorSnapshotRoundTrip is the per-collector property test:
// encode → restore into a fresh collector → encode must reproduce the
// original bytes, and encoding must be deterministic. That the restored
// state renders the same artifacts is TestIncrementalEqualsFull's job.
func TestCollectorSnapshotRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	a, err := New(detDataset(t, 2), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Require(context.Background(), NeedAll); err != nil {
		t.Fatal(err)
	}
	for _, tc := range allNeeds {
		t.Run(tc.name, func(t *testing.T) {
			col := a.cols[tc.need]
			if col == nil {
				t.Fatalf("no live collector for %s", tc.name)
			}
			data := encodeUnit(tc.need, col)
			if !bytes.Equal(encodeUnit(tc.need, col), data) {
				t.Fatal("encode is not deterministic")
			}

			fresh := collectorFor(tc.need, a.env)
			if err := restoreState(fresh, tc.need, data); err != nil {
				t.Fatal(err)
			}
			if back := encodeUnit(tc.need, fresh); !bytes.Equal(back, data) {
				t.Fatalf("%s: the restored collector encodes differently (%d vs %d bytes)",
					tc.name, len(back), len(data))
			}

			// A corrupt header or trailing bytes must be rejected, not
			// misparsed.
			bad := slices.Clone(data)
			bad[0] ^= 0xff
			if err := restoreState(collectorFor(tc.need, a.env), tc.need, bad); err == nil {
				t.Fatal("corrupted version byte accepted")
			}
			if err := restoreState(collectorFor(tc.need, a.env), tc.need, append(slices.Clone(data), 0)); err == nil {
				t.Fatal("trailing byte accepted")
			}
		})
	}
}

// TestCollectorStateRejectsTruncation: every restore must fail cleanly
// on truncated payloads instead of panicking or misreading.
func TestCollectorStateRejectsTruncation(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	a, err := New(detDataset(t, 1), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Require(context.Background(), NeedAll); err != nil {
		t.Fatal(err)
	}
	for _, tc := range allNeeds {
		data := encodeUnit(tc.need, a.cols[tc.need])
		for _, cut := range []int{1, len(data) / 2, len(data) - 1} {
			if err := restoreState(collectorFor(tc.need, a.env), tc.need, data[:cut]); err == nil {
				t.Errorf("%s: truncation at %d/%d accepted", tc.name, cut, len(data))
			}
		}
	}
}

// FuzzResumeAnalyzer mutates the body of a real checkpoint and seals it
// with a recomputed trailer, so every input gets past the checksum into
// the decoders. Resuming must fail cleanly or succeed, never panic, and
// a resumed analyzer must checkpoint again.
func FuzzResumeAnalyzer(f *testing.F) {
	cfg := simulate.DefaultConfig(3)
	cfg.UEs, cfg.Days, cfg.Shards, cfg.Districts, cfg.SitesTarget = 20, 2, 2, 40, 200
	cfg.Store = tempStore(f)
	ds, err := simulate.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for _, need := range []Need{NeedAll, NeedTypes | NeedPingPong, NeedDurations} {
		a, err := New(ds)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := a.Require(context.Background(), need); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := a.Checkpoint(&buf); err != nil {
			f.Fatal(err)
		}
		ckpt := buf.Bytes()
		f.Add(ckpt[len(checkpointMagic) : len(ckpt)-8])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		data := append(slices.Clone(checkpointMagic), body...)
		data = binary.LittleEndian.AppendUint64(data, checksum64(data))
		a, err := ResumeAnalyzer(ds, bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := a.Checkpoint(&bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
	})
}
