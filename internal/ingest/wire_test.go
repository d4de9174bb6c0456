package ingest

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"telcolens/internal/trace"
)

// TestWALMidFileCorruptionRefused flips one payload byte of the first
// of two batch frames. The frame after it is intact, so no crash can
// have left that log behind: Open must refuse it, naming the file and
// the frame's offset, and leave its bytes alone instead of truncating
// the acknowledged second batch away.
func TestWALMidFileCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, Options{})
	if err := svc.Init(testMeta(1)); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if _, err := svc.Append(1, seq, mkBatch(0, 20, int(seq))); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()

	walPath := filepath.Join(dir, walDirName, "day_000.wal")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(walMagic)+frameHeaderLen+batchKeyLen+30] ^= 0x01
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if err == nil {
		t.Fatal("Open accepted a WAL with a corrupt frame before an intact one")
	}
	if !strings.Contains(err.Error(), walPath) || !strings.Contains(err.Error(), "offset 8") {
		t.Fatalf("error %q does not name the file and the frame's offset", err)
	}
	if got, _ := os.ReadFile(walPath); !bytes.Equal(got, data) {
		t.Fatal("the refused WAL was modified")
	}
}

// TestWALOldFormatRefused: a log in the retired TLWAL001 format (fixed
// 32-byte record images) is refused by name, never emptied as a torn
// header.
func TestWALOldFormatRefused(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, Options{})
	if err := svc.Init(testMeta(1)); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	walPath := filepath.Join(dir, walDirName, "day_000.wal")
	old := append([]byte("TLWAL001"), make([]byte, 64)...)
	if err := os.WriteFile(walPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "TLWAL001") {
		t.Fatalf("Open of a TLWAL001 log: err = %v, want a refusal naming the format", err)
	}
	if got, _ := os.ReadFile(walPath); !bytes.Equal(got, old) {
		t.Fatal("the refused WAL was modified")
	}
}

// TestMalformedBodiesChangeNothing posts damaged batch bodies. Each must
// be a 400 that leaves the WAL and the memtable as they were; the
// undamaged body is then accepted.
func TestMalformedBodiesChangeNothing(t *testing.T) {
	svc := mustOpen(t, t.TempDir(), Options{})
	if err := svc.Init(testMeta(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Append(1, 1, mkBatch(0, 10, 0)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const n = 50
	good, err := appendBatch(nil, 9, 1, mkBatch(0, n, 3))
	if err != nil {
		t.Fatal(err)
	}
	damaged := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	tsWidth := batchKeyLen + 56 // the first section's width byte, after the descriptor
	jsonBody, err := json.Marshal(map[string]any{"stream": 9, "seq": 1, "records": []trace.Record{{UE: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, contentType string
		body              []byte
	}{
		{"truncated", ContentTypeBinary, good[:len(good)-1]},
		{"extended", ContentTypeBinary, append(bytes.Clone(good), 0)},
		{"count-mismatch", ContentTypeBinary, damaged(func(b []byte) []byte { b[batchKeyLen]++; return b })},
		{"section-flip", ContentTypeBinary, damaged(func(b []byte) []byte { b[tsWidth] ^= 0x7f; return b })},
		{"off-grid-duration", ContentTypeBinary, damaged(func(b []byte) []byte { b[len(b)-4] ^= 0x01; return b })},
		{"end-of-blocks-marker", ContentTypeBinary, append(bytes.Clone(good[:batchKeyLen]), 0, 0, 0, 0)},
		{"key-only", ContentTypeBinary, good[:batchKeyLen]},
		{"json", "application/json", jsonBody},
		{"json-as-binary", ContentTypeBinary, jsonBody},
	}
	post := func(contentType string, body []byte) int {
		resp, err := http.Post(srv.URL+"/ingest", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	before := svc.Stats()
	for _, tc := range cases {
		if code := post(tc.contentType, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		if st := svc.Stats(); st.WALBytes != before.WALBytes || st.MemtableRecords != before.MemtableRecords {
			t.Errorf("%s: WAL %d -> %d bytes, memtable %d -> %d records", tc.name,
				before.WALBytes, st.WALBytes, before.MemtableRecords, st.MemtableRecords)
		}
	}
	if code := post(ContentTypeBinary, good); code != http.StatusOK {
		t.Fatalf("undamaged body: status %d", code)
	}
	if st := svc.Stats(); st.MemtableRecords != before.MemtableRecords+n {
		t.Fatalf("memtable %d records after the undamaged body, want %d", st.MemtableRecords, before.MemtableRecords+n)
	}
}

// bodyRecorder is an ingest endpoint that acknowledges and keeps every
// body posted to it.
type bodyRecorder struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (b *bodyRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	b.mu.Lock()
	b.bodies = append(b.bodies, body)
	b.mu.Unlock()
	w.Write([]byte(`{"accepted":1}`))
}

func (b *bodyRecorder) posted() [][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.bodies)
}

// TestClientRefusesOversizedBatch: a batch past the block cap is an
// error before anything reaches the wire, and it does not use up a
// sequence number.
func TestClientRefusesOversizedBatch(t *testing.T) {
	rec := new(bodyRecorder)
	srv := httptest.NewServer(rec)
	defer srv.Close()
	cl := &Client{Base: srv.URL, Stream: 3}
	big := &trace.ColumnBatch{Timestamps: make([]int64, trace.MaxBlockRecords+1)}
	if _, err := cl.Send(context.Background(), big); err == nil {
		t.Fatal("Send accepted a batch past the block cap")
	}
	if n := len(rec.posted()); n != 0 {
		t.Fatalf("%d requests posted for a refused batch", n)
	}
	if _, err := cl.Send(context.Background(), mkBatch(0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if bodies := rec.posted(); len(bodies) != 1 || binary.LittleEndian.Uint64(bodies[0][4:]) != 1 {
		t.Fatal("the first batch posted after a refusal does not carry seq 1")
	}
}

// FuzzDecodeBatch fuzzes the network input path: the batch decoder
// every POST /ingest body and every WAL batch frame goes through,
// seeded from the bodies a real Client posts and the batch frames of a
// real WAL. Any input must be refused or decoded without a panic, and
// one that decodes must re-encode to exactly its own bytes.
func FuzzDecodeBatch(f *testing.F) {
	rec := new(bodyRecorder)
	srv := httptest.NewServer(rec)
	cl := &Client{Base: srv.URL, Stream: 2, Sleep: func(time.Duration) {}}
	for i, n := range []int{1, 7, 512, 700} {
		if _, err := cl.Send(context.Background(), mkBatch(i%2, n, i)); err != nil {
			f.Fatal(err)
		}
	}
	srv.Close()
	seeds := rec.posted()

	dir := f.TempDir()
	svc, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := svc.Init(testMeta(2)); err != nil {
		f.Fatal(err)
	}
	cross := mkBatch(0, 40, 5)
	cross.AppendColumns(mkBatch(1, 30, 6))
	if _, err := svc.Append(4, 1, cross); err != nil {
		f.Fatal(err)
	}
	svc.Close()
	for _, name := range []string{"day_000.wal", "day_001.wal"} {
		data, err := os.ReadFile(filepath.Join(dir, walDirName, name))
		if err != nil {
			f.Fatal(err)
		}
		for off := int64(len(walMagic)); ; {
			typ, payload, ok, _ := frameAt(data, off)
			if !ok {
				break
			}
			if typ == frameBatch {
				seeds = append(seeds, payload)
			}
			off += frameHeaderLen + int64(len(payload))
		}
	}
	if len(seeds) != 6 {
		f.Fatalf("%d seeds, want 4 client bodies and 2 WAL frames", len(seeds))
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)-1])
		flip := bytes.Clone(s)
		flip[batchKeyLen] ^= 0x01 // the block's record count
		f.Add(flip)
	}
	f.Add([]byte{})
	f.Add(make([]byte, batchKeyLen+4)) // the end-of-blocks marker

	f.Fuzz(func(t *testing.T, data []byte) {
		var cb trace.ColumnBatch
		stream, seq, err := decodeBatch(data, &cb)
		if err != nil {
			return
		}
		again, err := appendBatch(nil, stream, seq, &cb)
		if err != nil {
			t.Fatalf("a decoded batch of %d rows does not re-encode: %v", cb.Len(), err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("a decoded batch re-encodes to other bytes (%d, not %d)", len(again), len(data))
		}
	})
}
