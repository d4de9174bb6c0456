package analysis

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// pinnedAnalyzer renders the whole report of the pinned campaign.
func pinnedAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	cfg := simulate.DefaultConfig(7)
	cfg.UEs, cfg.Days, cfg.Shards, cfg.Store = 400, 3, 2, tempStore(t)
	ds, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunAll(context.Background(), a, io.Discard); err != nil {
		t.Fatal(err)
	}
	return a
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Checkpoint bytes are a function of the campaign alone. The digest pins
// the version 4 layout, in which each duration class is its (code,
// count) pairs, over the pinned campaign as stored on disk (quantized
// durations, stream fingerprints).
func TestCheckpointBytesPinned(t *testing.T) {
	const want = "5e13e9ebec575d63002f21066da5206e8172dd393be5d67a12ae4988da5bcc89"
	var buf bytes.Buffer
	if err := pinnedAnalyzer(t).Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(buf.Bytes()); got != want {
		t.Fatalf("checkpoint sha256 = %s, want %s", got, want)
	}
}

// legacyDurations appends the durations state of snapshot versions 1 to
// 3: per class, a bottom-k sample of (priority, value) pairs, the
// priority a salted hash of the record's timestamp and UE, in (priority,
// value) order. Every class of the pinned campaign is below its sample
// capacity, so the sample is every value of the class.
func legacyDurations(t *testing.T, a *Analyzer, e *enc) {
	t.Helper()
	type entry struct {
		p uint64
		v float64
	}
	var succ [nTypes][]entry
	var cause [nCauseIdx][]entry
	for _, p := range partitionsOf(a.covered) {
		cb := partitionBatch(t, a.DS.Config.Store, p)
		for i := 0; i < cb.Len(); i++ {
			key := mix64(uint64(cb.Timestamps[i])) ^ uint64(cb.UEs[i])*0x9e3779b97f4a7c15
			v := float64(cb.Durations[i])
			if cb.Results[i] == trace.Failure {
				ci := causeIdx(cb.Causes[i])
				cause[ci] = append(cause[ci], entry{mix64(key ^ mix64(uint64(2000+ci))), v})
			} else {
				ht := hoTypeByRAT[cb.RATs[i]&0x0f]
				succ[ht] = append(succ[ht], entry{mix64(key ^ mix64(uint64(1000+int(ht)))), v})
			}
		}
	}
	class := func(capacity int, salt uint64, es []entry) {
		if len(es) > capacity {
			t.Fatalf("the pinned campaign holds %d values of a class sampled at %d", len(es), capacity)
		}
		slices.SortFunc(es, func(x, y entry) int {
			if c := cmp.Compare(x.p, y.p); c != 0 {
				return c
			}
			return cmp.Compare(x.v, y.v)
		})
		e.u32(uint32(capacity))
		e.u64(mix64(salt))
		e.i64(int64(len(es)))
		e.u32(uint32(len(es)))
		for _, x := range es {
			e.u64(x.p)
		}
		e.u32(uint32(len(es)))
		for _, x := range es {
			e.f64(x.v)
		}
	}
	for i, es := range succ {
		class(200_000, uint64(1000+i), es)
	}
	for i, es := range cause {
		class(50_000, uint64(2000+i), es)
	}
}

// legacyCheckpoint writes the state of an analyzer over the whole study
// in the layout of snapshot version 1, 2 or 3. All three tag every state
// with their version and encode the durations as legacyDurations does.
// Versions 1 and 2 also keep the scans' stored-bytes count (BytesRead)
// in the types state after its failure total, and encode the ping-pong
// state as one automaton per UE and window: the oracle's, replayed over
// the covered partitions. Version 2 writes that state as one more
// collector state. Version 1 writes every other collector's, then a
// section of its own holding the ping-pong tracker and the coverage it
// was advanced over.
func legacyCheckpoint(t *testing.T, a *Analyzer, version uint8) []byte {
	t.Helper()
	bytesRead := a.ScanStats().BytesRead
	a.mu.Lock()
	defer a.mu.Unlock()
	tk := newPPTracker(a.env.nUEs, StandardPingPongWindows)
	if err := tk.advance(context.Background(), a.DS.Config.Store, partitionsOf(a.covered), a.env.sectors, nil); err != nil {
		t.Fatal(err)
	}
	state := func(n Need) []byte {
		s := &enc{}
		switch {
		case n == NeedPingPong && version <= 2:
			s.u8(version)
			s.u32(uint32(n))
			tk.encode(s)
			return s.b
		case n == NeedDurations:
			s.u8(version)
			s.u32(uint32(n))
			legacyDurations(t, a, s)
			return s.b
		}
		encodeState(s, n, a.cols[n])
		s.b[0] = version
		if n == NeedTypes && version <= 2 {
			const at = 1 + 4 + 4 + 8 + 8 // header, days, total HOs and failures
			s.b = slices.Insert(s.b, at, binary.LittleEndian.AppendUint64(nil, uint64(bytesRead))...)
		}
		return s.b
	}

	have, end := a.have, needSentinel
	if version == 1 {
		have, end = a.have&^NeedPingPong, NeedPingPong
	}
	e := &enc{b: append([]byte(nil), checkpointMagic...)}
	cfg := a.DS.Config
	e.u64(cfg.Seed)
	e.u32(uint32(cfg.Days))
	e.u32(uint32(cfg.UEs))
	e.u32(uint32(cfg.Shards))
	e.u32(uint32(cfg.Districts))
	e.u32(uint32(cfg.SitesTarget))
	e.f64(cfg.RareBoost)
	e.u32(uint32(cfg.LongTailCauses))
	e.i32(int32(a.winFrom))
	e.i32(int32(a.winTo))
	e.u32(uint32(have))
	encodeCoverage(e, a.covered)
	e.u64(a.coveredGen)
	for n := NeedTypes; n < end; n <<= 1 {
		if _, ok := a.cols[n]; !ok {
			continue
		}
		b := state(n)
		e.u32(uint32(len(b)))
		e.b = append(e.b, b...)
	}
	if version == 1 {
		e.u8(1)
		tk.encode(e)
		encodeCoverage(e, a.covered)
	}
	e.u64(checksum64(e.b))
	return e.b
}

// TestCheckpointVersionOneFallsBackCold: a checkpoint written by the
// version 1, 2 or 3 layout is refused, so ResumeAnalyzerFile falls back
// to a cold analyzer whose report equals a cold report.
func TestCheckpointVersionOneFallsBackCold(t *testing.T) {
	a := pinnedAnalyzer(t)
	cold, err := New(a.DS)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := RunAll(context.Background(), cold, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		version uint8
		// The digest of the layout over the pinned campaign as stored
		// today: what TestCheckpointBytesPinned held while the layout
		// was current, with the partition fingerprints the files carry
		// now that each partition ends with its index footer.
		digest string
	}{
		{1, "5dafb21bf8ae85f150820eda4e357a72f7b7397c5690be1f68f8f8228697f25a"},
		{2, "69d8592f72ef6c72612eff7adabeee42d79d5856314d8881d578178cc855eea0"},
		{3, "70ea8e2ec7710bb3c2928814f7c60fdc22a08ba5b20d5000387a2095dc211b47"},
	} {
		old := legacyCheckpoint(t, a, c.version)
		if got := sha256Hex(old); got != c.digest {
			t.Fatalf("version %d rewrite sha256 = %s, want the old pinned digest %s", c.version, got, c.digest)
		}
		if _, err := ResumeAnalyzer(a.DS, bytes.NewReader(old)); err == nil {
			t.Fatalf("a version %d checkpoint resumed", c.version)
		}
		path := filepath.Join(t.TempDir(), "state.tlckpt")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		fallback, resumed, err := ResumeAnalyzerFile(nil, path, a.DS)
		if err != nil {
			t.Fatal(err)
		}
		if resumed {
			t.Fatalf("a version %d checkpoint file resumed", c.version)
		}
		var got bytes.Buffer
		if err := RunAll(context.Background(), fallback, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("version %d: the fallback analyzer's report differs from a cold report", c.version)
		}
	}
}
