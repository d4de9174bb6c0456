package analysis

import (
	"bytes"
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
// the version 3 layout, in which each UE's ping-pong state is one
// automaton for every window, over the pinned campaign as stored on
// disk (quantized durations, stream fingerprints).
func TestCheckpointBytesPinned(t *testing.T) {
	const want = "7c8498151623376b1a208846a43990d27ff4edf5fb1ecfb845da74549e6853f1"
	var buf bytes.Buffer
	if err := pinnedAnalyzer(t).Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(buf.Bytes()); got != want {
		t.Fatalf("checkpoint sha256 = %s, want %s", got, want)
	}
}

// legacyCheckpoint writes the state of an analyzer over the whole study
// in the layout of snapshot version 1 or 2. Both tag every state with
// their version, keep the scans' stored-bytes count (BytesRead) in the
// types state after its failure total, and encode the ping-pong state
// as one automaton per UE and window: the oracle's, replayed over the
// covered partitions. Version 2 writes that state as one more collector
// state. Version 1 writes every other collector's, then a section of
// its own holding the ping-pong tracker and the coverage it was
// advanced over.
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
		if n == NeedPingPong {
			s.u8(version)
			s.u32(uint32(n))
			tk.encode(s)
			return s.b
		}
		encodeState(s, n, a.cols[n])
		s.b[0] = version
		if n == NeedTypes {
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
// version 1 or version 2 layout is refused, so ResumeAnalyzerFile falls
// back to a cold analyzer whose report equals a cold report.
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
		// The digest TestCheckpointBytesPinned held for this campaign
		// while the layout was current: the rewrite reproduces the old
		// bytes exactly.
		digest string
	}{
		{1, "aa8409548dd954d81936a9c8eea2e79a935d766d0eeaabe1481a449e20dfe636"},
		{2, "814da41805b74fb0076256fa9dd8a42dc73792c986a33d99e64456a3c34fb118"},
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
