package analysis

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"

	"telcolens/internal/simulate"
)

// pinnedAnalyzer renders the whole report of the pinned campaign.
func pinnedAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	cfg := simulate.DefaultConfig(7)
	cfg.UEs, cfg.Days, cfg.Shards = 400, 3, 2
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
// the version 2 layout, in which the ping-pong automata are one more
// collector state.
func TestCheckpointBytesPinned(t *testing.T) {
	const want = "fe9a871008150031cbc08a4ea8f364792f927c475f12932d1bdb1ff3ef1eb3a6"
	var buf bytes.Buffer
	if err := pinnedAnalyzer(t).Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(buf.Bytes()); got != want {
		t.Fatalf("checkpoint sha256 = %s, want %s", got, want)
	}
}

// versionOneCheckpoint writes the analyzer's state in the version 1
// layout: every collector but ping-pong, each state tagged version 1,
// then a section of its own holding the ping-pong tracker and the
// coverage it was advanced over.
func versionOneCheckpoint(t *testing.T, a *Analyzer) []byte {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
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
	e.u32(uint32(a.have &^ NeedPingPong))
	encodeCoverage(e, a.covered)
	e.u64(a.coveredGen)
	for n := NeedTypes; n < NeedPingPong; n <<= 1 {
		col, ok := a.cols[n]
		if !ok {
			continue
		}
		state := &enc{}
		encodeState(state, n, col)
		state.b[0] = 1
		e.u32(uint32(len(state.b)))
		e.b = append(e.b, state.b...)
	}
	e.u8(1)
	a.cols[NeedPingPong].(*pingpongCollector).t.encode(e)
	encodeCoverage(e, a.covered)
	e.u64(checksum64(e.b))
	return e.b
}

// TestCheckpointVersionOneFallsBackCold: a checkpoint written by the
// version 1 layout is refused, so ResumeAnalyzerFile falls back to a cold
// analyzer whose report equals a cold report.
func TestCheckpointVersionOneFallsBackCold(t *testing.T) {
	a := pinnedAnalyzer(t)
	old := versionOneCheckpoint(t, a)
	// The digest TestCheckpointBytesPinned held before the layout change:
	// the rewrite reproduces the old bytes exactly, so the collector
	// states themselves are unchanged.
	if got := sha256Hex(old); got != "eb9862ed1156617cf2f912fe2c94f4eaa09ea06fce46e8a51363492d422d5ee7" {
		t.Fatalf("version 1 rewrite sha256 = %s, want the old pinned digest", got)
	}
	if _, err := ResumeAnalyzer(a.DS, bytes.NewReader(old)); err == nil {
		t.Fatal("a version 1 checkpoint resumed")
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
		t.Fatal("a version 1 checkpoint file resumed")
	}
	cold, err := New(a.DS)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := RunAll(context.Background(), cold, &want); err != nil {
		t.Fatal(err)
	}
	if err := RunAll(context.Background(), fallback, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("the fallback analyzer's report differs from a cold report")
	}
}
