package query

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"telcolens/internal/causes"
	"telcolens/internal/devices"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
	"telcolens/internal/trace/tracetest"
)

// corpus is a deterministic synthetic campaign kept both as ground
// truth (records in canonical partition order) and on disk.
type corpus struct {
	days, shards int
	// recs maps each partition to its records in storage order.
	recs map[trace.Partition][]trace.Record
}

// genCorpus routes perDay records per study day to shards via ShardOf
// (the layout the simulator writes) with timestamps sorted inside each
// partition, mirroring real stream order.
func genCorpus(seed int64, days, shards, perDay int) *corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{days: days, shards: shards, recs: make(map[trace.Partition][]trace.Record)}
	tacs := []devices.TAC{35000001, 35000002, 35000003}
	for day := 0; day < days; day++ {
		base := trace.DayStart(day).UnixMilli()
		day24h := int64(24 * 60 * 60 * 1000)
		byShard := make([][]trace.Record, shards)
		for i := 0; i < perDay; i++ {
			ue := trace.UEID(rng.Intn(300))
			rec := trace.Record{
				Timestamp:  base + rng.Int63n(day24h),
				UE:         ue,
				TAC:        tacs[rng.Intn(len(tacs))],
				Source:     topology.SectorID(rng.Intn(200)),
				Target:     topology.SectorID(rng.Intn(200)),
				SourceRAT:  topology.RAT(rng.Intn(4)),
				TargetRAT:  topology.RAT(rng.Intn(4)),
				Result:     trace.Success,
				DurationMs: float32(rng.Intn(3000)) / 10,
			}
			if rng.Intn(40) == 0 {
				rec.Result = trace.Failure
				rec.Cause = causes.Code(1 + rng.Intn(100))
			}
			sh := trace.ShardOf(ue, shards)
			byShard[sh] = append(byShard[sh], rec)
		}
		for sh := 0; sh < shards; sh++ {
			rs := byShard[sh]
			for i := 1; i < len(rs); i++ { // insertion sort keeps ties stable
				for j := i; j > 0 && rs[j].Timestamp < rs[j-1].Timestamp; j-- {
					rs[j], rs[j-1] = rs[j-1], rs[j]
				}
			}
			c.recs[trace.Partition{Day: day, Shard: sh}] = rs
		}
	}
	return c
}

// writeRecords lands recs through w as one columnar batch.
func writeRecords(w trace.RecordWriter, recs []trace.Record) error {
	var cb trace.ColumnBatch
	cb.FromRecords(recs)
	return w.WriteColumns(&cb)
}

// write lands the corpus into a fresh FileStore under dir.
func (c *corpus) write(t *testing.T, dir string, opts trace.FileStoreOptions) *trace.FileStore {
	t.Helper()
	fs, err := trace.NewFileStoreOpts(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < c.days; day++ {
		for sh := 0; sh < c.shards; sh++ {
			w, err := fs.AppendPartition(day, sh)
			if err != nil {
				t.Fatal(err)
			}
			if err := writeRecords(w, c.recs[trace.Partition{Day: day, Shard: sh}]); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fs
}

// expected computes the ground-truth rows for p by brute force over the
// corpus in canonical order.
func (c *corpus) expected(p Params) (rows []Row, truncated bool) {
	p, _ = p.normalize()
	rows = []Row{}
	for day := 0; day < c.days; day++ {
		for sh := 0; sh < c.shards; sh++ {
			for _, rec := range c.recs[trace.Partition{Day: day, Shard: sh}] {
				if !p.matches(rec.Timestamp, rec.UE, uint32(rec.TAC), uint32(rec.Source), uint32(rec.Target)) {
					continue
				}
				if len(rows) < p.Limit {
					r := rec
					rows = append(rows, rowFrom(&r))
				} else {
					truncated = true
				}
			}
		}
	}
	return rows, truncated
}

func u32(v uint32) *uint32      { return &v }
func ueID(v uint32) *trace.UEID { u := trace.UEID(v); return &u }
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestQueryMatchesScan is the equivalence property: at two block sizes,
// for stores whose index footers decode and stores whose footers are
// all damaged (the -noindex rows), and across window edges, the indexed
// execution returns rows byte-identical to both the forced scan
// fallback (NoIndex) and the brute-force ground truth. Stores whose
// streams name a format earlier versions wrote (v1, v2, flate, TLZ)
// must fail every query that has to decode them with ErrBadVersion
// naming the format and telcogen, never answer as if the partitions
// were empty; the v2 rows check that with the footers' pruning, without
// it, and with one block per partition.
func TestQueryMatchesScan(t *testing.T) {
	c := genCorpus(29, 3, 2, 900)
	cases := queryShapes(c)

	stores := []struct {
		name           string
		opts           trace.FileStoreOptions
		noIndex        bool   // damage every index footer after writing
		version, flags uint16 // header stamped over the v3 streams; 0 keeps them
	}{
		{name: "v3", opts: trace.FileStoreOptions{BlockRecords: 64}},
		{name: "v3-noindex", opts: trace.FileStoreOptions{BlockRecords: 64}, noIndex: true},
		{name: "v3-block4096", opts: trace.FileStoreOptions{}},
		{name: "v1", opts: trace.FileStoreOptions{BlockRecords: 64}, version: 1},
		{name: "v2", opts: trace.FileStoreOptions{BlockRecords: 64}, version: 2},
		{name: "v2-noindex", opts: trace.FileStoreOptions{BlockRecords: 64}, noIndex: true, version: 2},
		{name: "v2-block4096", opts: trace.FileStoreOptions{}, version: 2},
		{name: "v2flate", opts: trace.FileStoreOptions{BlockRecords: 64}, version: 2, flags: 1},
		{name: "v3tlz", opts: trace.FileStoreOptions{BlockRecords: 64}, version: 3, flags: 2},
	}

	ctx := context.Background()
	for _, sc := range stores {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := c.write(t, dir, sc.opts)
			if sc.noIndex {
				damageFooters(t, dir, "byte-flipped")
			}
			if sc.version != 0 {
				stampHeaders(t, dir, sc.version, sc.flags)
			}
			eng := New(fs)
			v, err := NewView(fs)
			if err != nil {
				t.Fatal(err)
			}
			if v.Gen == 0 {
				t.Fatal("file store view has no manifest generation")
			}
			refused := 0
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					indexed, _, err := eng.Query(ctx, v, tc.p)
					fb := tc.p
					fb.NoIndex = true
					fallback, _, fbErr := eng.Query(ctx, v, fb)
					if sc.version != 0 {
						// Only a query the zone maps and footers answer
						// without decoding may succeed, and then its
						// ground truth is empty.
						wantRows, _ := c.expected(tc.p)
						for _, q := range []struct {
							res *Result
							err error
						}{{indexed, err}, {fallback, fbErr}} {
							if q.err == nil && (len(wantRows) > 0 || len(q.res.Rows) > 0) {
								t.Fatalf("query over unreadable streams answered %d rows (ground truth %d)",
									len(q.res.Rows), len(wantRows))
							}
							if q.err != nil && (!errors.Is(q.err, trace.ErrBadVersion) ||
								!strings.Contains(q.err.Error(), sc.name[:2]) || !strings.Contains(q.err.Error(), "telcogen")) {
								t.Fatalf("err = %v, want ErrBadVersion naming %s and telcogen", q.err, sc.name[:2])
							}
							if q.err != nil {
								refused++
							}
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if fbErr != nil {
						t.Fatal(fbErr)
					}
					gotIdx := mustJSON(t, indexed.Rows)
					gotFb := mustJSON(t, fallback.Rows)
					if gotIdx != gotFb {
						t.Fatalf("indexed rows differ from scan fallback:\n%s\nvs\n%s", gotIdx, gotFb)
					}
					wantRows, wantTrunc := c.expected(tc.p)
					if want := mustJSON(t, wantRows); gotIdx != want {
						t.Fatalf("rows differ from ground truth:\ngot  %s\nwant %s", gotIdx, want)
					}
					if indexed.Truncated != wantTrunc || fallback.Truncated != wantTrunc {
						t.Fatalf("truncated = %v/%v, want %v", indexed.Truncated, fallback.Truncated, wantTrunc)
					}
				})
			}
			if sc.version != 0 && refused == 0 {
				t.Fatal("no query over unreadable streams was refused")
			}
		})
	}
}

// queryShape is one query of TestQueryMatchesScan's matrix.
type queryShape struct {
	name string
	p    Params
}

// queryShapes are the query shapes the equivalence tests run over a
// genCorpus(29, 3, 2, 900) corpus: point, window, cross-day,
// conjunctive, truncated, sector, single-record, empty and absent.
func queryShapes(c *corpus) []queryShape {
	day1 := trace.DayRange(1, 1)
	// A mid-stream timestamp whose one-record window exercises the
	// single-block edge.
	pin := c.recs[trace.Partition{Day: 1, Shard: 0}][200]
	return []queryShape{
		{"ue", Params{UE: ueID(uint32(pin.UE))}},
		{"ue-day-window", Params{UE: ueID(uint32(pin.UE)), From: day1.MinTS, To: day1.MaxTS}},
		{"ue-cross-day", Params{UE: ueID(uint32(pin.UE)),
			From: trace.DayStart(0).UnixMilli() + 12*3600_000,
			To:   trace.DayStart(1).UnixMilli() + 12*3600_000}},
		{"ue-tac", Params{UE: ueID(uint32(pin.UE)), TAC: u32(uint32(pin.TAC))}},
		{"tac-truncated", Params{TAC: u32(35000002), Limit: 50}},
		{"sector", Params{Sector: u32(uint32(pin.Source))}},
		{"point-window", Params{UE: ueID(uint32(pin.UE)), From: pin.Timestamp, To: pin.Timestamp}},
		{"empty-window", Params{From: trace.DayStart(100).UnixMilli(), To: trace.DayStart(101).UnixMilli()}},
		{"absent-ue", Params{UE: ueID(999_999)}},
	}
}

// damageFooters breaks the index footer of every partition under dir
// the way tracetest.DamageFooter names, leaving the blocks and the
// MANIFEST as they were: no partition's index decodes.
func damageFooters(t *testing.T, dir, how string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.tlho"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no partitions under %s: %v", dir, err)
	}
	for _, p := range paths {
		if err := tracetest.DamageFooter(p, how); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryFooterDamage is the footer damage matrix: whatever breaks
// every partition's index footer (a flipped byte, the footer cut back
// to its trailer, a trailer length past the start of the file), each
// query returns the rows of its NoIndex run and of the ground truth,
// and pins the footer as unusable rather than failing. A v3 store,
// whose index was a sidecar, fails every query that decodes it with
// ErrBadVersion naming the format and telcogen.
func TestQueryFooterDamage(t *testing.T) {
	c := genCorpus(29, 3, 2, 900)
	ctx := context.Background()
	for _, how := range append(tracetest.FooterDamages, "v3") {
		t.Run(how, func(t *testing.T) {
			dir := t.TempDir()
			fs := c.write(t, dir, trace.FileStoreOptions{BlockRecords: 64})
			if how == "v3" {
				if err := tracetest.DowngradeToV3(dir); err != nil {
					t.Fatal(err)
				}
			} else {
				damageFooters(t, dir, how)
			}
			eng := New(fs)
			v, err := NewView(fs)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range queryShapes(c) {
				want, _ := c.expected(tc.p)
				fb := tc.p
				fb.NoIndex = true
				for _, p := range []Params{tc.p, fb} {
					res, _, err := eng.Query(ctx, v, p)
					if how == "v3" {
						if err == nil && len(want) > 0 {
							t.Fatalf("%s: a v3 store answered %d rows", tc.name, len(res.Rows))
						}
						if err != nil && (!errors.Is(err, trace.ErrBadVersion) ||
							!strings.Contains(err.Error(), "v3 blocks with a separate index sidecar") ||
							!strings.Contains(err.Error(), "telcogen")) {
							t.Fatalf("%s: err = %v, want ErrBadVersion naming v3 and telcogen", tc.name, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
					if got, w := mustJSON(t, res.Rows), mustJSON(t, want); got != w {
						t.Fatalf("%s (noindex=%v): rows differ from ground truth:\ngot  %s\nwant %s",
							tc.name, p.NoIndex, got, w)
					}
				}
			}
			for i := range v.indexes {
				if idx := v.indexes[i].Load(); idx != nil && idx != noIndex {
					t.Fatalf("partition %d: a damaged footer was pinned as an index", i)
				}
			}
		})
	}
}

// stampHeaders rewrites the version and flags of every partition stream
// under dir, leaving the MANIFEST untouched.
func stampHeaders(t *testing.T, dir string, version, flags uint16) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.tlho"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no partitions under %s: %v", dir, err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(data[4:], version)
		binary.LittleEndian.PutUint16(data[6:], flags)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryPointPrunesBlocks is the efficiency acceptance bound: on a
// 31-day sharded campaign, a single-UE point query must decode at most
// 5% of the blocks a full-day scan touches.
func TestQueryPointPrunesBlocks(t *testing.T) {
	const (
		days     = 31
		shards   = 4
		perShard = 2000
		perBlock = 128
	)
	rng := rand.New(rand.NewSource(41))
	fs, err := trace.NewFileStoreOpts(t.TempDir(), trace.FileStoreOptions{BlockRecords: perBlock})
	if err != nil {
		t.Fatal(err)
	}
	// One subscriber appears only on day 15, three clustered records.
	target := trace.UEID(7)
	tshard := trace.ShardOf(target, shards)
	for day := 0; day < days; day++ {
		base := trace.DayStart(day).UnixMilli()
		for sh := 0; sh < shards; sh++ {
			recs := make([]trace.Record, 0, perShard+3)
			for i := 0; i < perShard; i++ {
				ue := trace.UEID(1000 + rng.Intn(49000))
				for trace.ShardOf(ue, shards) != sh {
					ue = trace.UEID(1000 + rng.Intn(49000))
				}
				recs = append(recs, trace.Record{
					Timestamp: base + int64(i)*40_000, // sorted, spread over the day
					UE:        ue,
					TAC:       devices.TAC(35000000 + rng.Intn(500)),
					Source:    topology.SectorID(rng.Intn(10000)),
					Target:    topology.SectorID(rng.Intn(10000)),
					SourceRAT: topology.RAT(rng.Intn(4)),
					TargetRAT: topology.RAT(rng.Intn(4)),
					Result:    trace.Success,
				})
			}
			if day == 15 && sh == tshard {
				at := base + 7*3600_000
				for i := 0; i < 3; i++ {
					recs = append(recs, trace.Record{
						Timestamp: at + int64(i)*5000,
						UE:        target,
						TAC:       35000042,
						Source:    topology.SectorID(10 + i),
						Target:    topology.SectorID(11 + i),
						SourceRAT: topology.FourG,
						TargetRAT: topology.FourG,
						Result:    trace.Success,
					})
				}
				for i := 1; i < len(recs); i++ {
					for j := i; j > 0 && recs[j].Timestamp < recs[j-1].Timestamp; j-- {
						recs[j], recs[j-1] = recs[j-1], recs[j]
					}
				}
			}
			w, err := fs.AppendPartition(day, sh)
			if err != nil {
				t.Fatal(err)
			}
			if err := writeRecords(w, recs); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Baseline: what a full scan of one study day decodes.
	var dayBlocks int64
	day15 := trace.DayRange(15, 15)
	for sh := 0; sh < shards; sh++ {
		it, err := fs.OpenPartition(15, sh)
		if err != nil {
			t.Fatal(err)
		}
		it.SetTimeRange(day15.MinTS, day15.MaxTS)
		var cb trace.ColumnBatch
		for {
			n, err := it.NextColumns(&cb)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
		dayBlocks += it.ReadStats().BlocksRead
		it.Close()
	}
	if dayBlocks == 0 {
		t.Fatal("baseline scan decoded no blocks")
	}

	eng := New(fs)
	v, err := NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := eng.Query(context.Background(), v, Params{UE: &target})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("point query returned %d rows, want 3", len(res.Rows))
	}
	budget := float64(dayBlocks) * 0.05
	if got := float64(res.Metrics.BlocksDecoded); got > budget {
		t.Fatalf("point query decoded %d blocks; budget is 5%% of a %d-block day scan (%.1f)",
			res.Metrics.BlocksDecoded, dayBlocks, budget)
	}
	t.Logf("point query: %d blocks decoded, %d pruned; day scan decodes %d",
		res.Metrics.BlocksDecoded, res.Metrics.BlocksPruned, dayBlocks)
}

func TestQueryCacheLifecycle(t *testing.T) {
	c := genCorpus(5, 2, 2, 400)
	fs := c.write(t, t.TempDir(), trace.FileStoreOptions{BlockRecords: 64})
	eng := New(fs)
	v, err := NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := Params{UE: ueID(uint32(c.recs[trace.Partition{Day: 0, Shard: 0}][0].UE))}

	r1, hit, err := eng.Query(ctx, v, p)
	if err != nil || hit {
		t.Fatalf("first query: hit=%v err=%v", hit, err)
	}
	r2, hit, err := eng.Query(ctx, v, p)
	if err != nil || !hit {
		t.Fatalf("second query: hit=%v err=%v", hit, err)
	}
	if r1 != r2 {
		t.Fatal("cache hit returned a different result value")
	}
	eng.InvalidateCache()
	if _, hit, _ = eng.Query(ctx, v, p); hit {
		t.Fatal("query hit after InvalidateCache")
	}

	// A new generation (new partition landed) must miss even with a
	// warm cache for the old generation's key.
	w, err := fs.AppendPartition(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	v2, err := NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Gen == v.Gen {
		t.Fatal("generation did not advance after append")
	}
	if _, hit, _ = eng.Query(ctx, v2, p); hit {
		t.Fatal("new generation hit the old generation's cache entry")
	}
	cs := eng.CacheStats()
	if cs.Hits == 0 || cs.Misses == 0 || cs.Entries == 0 {
		t.Fatalf("implausible cache stats %+v", cs)
	}
}

// A canceled context aborts execution with the context's error, the
// abandoned partial result is never cached, and the Cached peek only
// answers for queries that actually completed.
func TestQueryCancelNotCached(t *testing.T) {
	c := genCorpus(9, 2, 2, 400)
	fs := c.write(t, t.TempDir(), trace.FileStoreOptions{BlockRecords: 64})
	eng := New(fs)
	v, err := NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{NoIndex: true} // force a full scan so cancellation has work to abort

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.Query(ctx, v, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query = %v, want context.Canceled", err)
	}
	if r := eng.Cached(v, p); r != nil {
		t.Fatal("canceled execution left a cached result")
	}

	// The same query, uncanceled, completes, caches, and the peek sees
	// exactly that entry — not other params, not other generations.
	r1, hit, err := eng.Query(context.Background(), v, p)
	if err != nil || hit {
		t.Fatalf("clean query: hit=%v err=%v", hit, err)
	}
	if r := eng.Cached(v, p); r != r1 {
		t.Fatalf("Cached peek = %p, want the memoized result %p", r, r1)
	}
	if r := eng.Cached(v, Params{NoIndex: true, Limit: 7}); r != nil {
		t.Fatal("Cached peek answered for different params")
	}
	other := *v
	other.Gen++
	if r := eng.Cached(&other, p); r != nil {
		t.Fatal("Cached peek answered across generations")
	}
	if r := eng.Cached(v, Params{Limit: -1}); r != nil {
		t.Fatal("Cached peek answered an invalid query")
	}
}

// The deadline probe in the record-iterator fallback aborts a scan
// mid-partition once the deadline passes.
func TestQueryDeadlineAbortsFallbackScan(t *testing.T) {
	c := genCorpus(11, 1, 1, 9000)
	fs := c.write(t, t.TempDir(), trace.FileStoreOptions{BlockRecords: 64})
	eng := New(fs)
	v, err := NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := eng.Query(ctx, v, Params{NoIndex: true, Aggregate: true}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired query = %v, want context.DeadlineExceeded", err)
	}
}

func TestQueryAggregate(t *testing.T) {
	fs, err := trace.NewFileStoreOpts(t.TempDir(), trace.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := trace.DayStart(0).UnixMilli()
	ue := trace.UEID(9)
	mk := func(off int64, src, dst topology.SectorID, rat topology.RAT, res trace.Result) trace.Record {
		rec := trace.Record{Timestamp: base + off, UE: ue, TAC: 35000001,
			Source: src, Target: dst, SourceRAT: topology.FourG, TargetRAT: rat, Result: res}
		if res == trace.Failure {
			rec.Cause = 5
		}
		return rec
	}
	recs := []trace.Record{
		mk(0, 1, 2, topology.FourG, trace.Success),      // seeds A->B
		mk(1000, 2, 1, topology.FourG, trace.Success),   // bounce within every window
		mk(5000, 3, 4, topology.TwoG, trace.Success),    // vertical
		mk(9000, 4, 5, topology.FourG, trace.Failure),   // failure, no automaton advance
		mk(90_000, 5, 3, topology.FourG, trace.Success), // unrelated pair, no bounce
	}
	w, err := fs.AppendPartition(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRecords(w, recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	eng := New(fs)
	v, err := NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := eng.Query(context.Background(), v, Params{UE: &ue, Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Aggregate
	if a == nil {
		t.Fatal("no aggregate computed")
	}
	if a.Records != 5 || a.Handovers != 4 || a.Failures != 1 || a.Horizontal != 3 || a.Vertical != 1 {
		t.Fatalf("aggregate = %+v", a)
	}
	for w, n := range a.PingPongs {
		if n != 1 {
			t.Fatalf("window %s counted %d bounces, want 1", w, n)
		}
	}

	// A mixed (no-UE) slice keeps counts but drops ping-pongs: the
	// automata are only defined per subscriber.
	res, _, err = eng.Query(context.Background(), v, Params{Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate == nil || res.Aggregate.PingPongs != nil {
		t.Fatalf("mixed-slice aggregate = %+v, want counts without ping-pongs", res.Aggregate)
	}
}

func TestQueryCSV(t *testing.T) {
	res := &Result{Rows: []Row{
		{Timestamp: 1, UE: 2, TAC: 35000001, Source: 3, Target: 4,
			SourceRAT: "4G", TargetRAT: "5G", Result: "success", DurationMs: 12.5},
	}}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row:\n%s", len(lines), buf.String())
	}
	if lines[0] != "ts,ue,tac,source,target,source_rat,target_rat,result,cause,duration_ms" {
		t.Fatalf("bad header %q", lines[0])
	}
	if lines[1] != "1,2,35000001,3,4,4G,5G,success,0,12.5" {
		t.Fatalf("bad row %q", lines[1])
	}
}

func TestQueryParamValidation(t *testing.T) {
	fs, err := trace.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(fs)
	v := &View{}
	ctx := context.Background()
	if _, _, err := eng.Query(ctx, v, Params{From: 10, To: 5}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("inverted window: %v, want ErrBadParams", err)
	}
	if _, _, err := eng.Query(ctx, v, Params{Limit: -1}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("negative limit: %v, want ErrBadParams", err)
	}
	p, err := Params{Limit: MaxLimit + 1}.normalize()
	if err != nil || p.Limit != MaxLimit {
		t.Fatalf("limit not capped: %d, %v", p.Limit, err)
	}
	p, err = Params{}.normalize()
	if err != nil || p.Limit != DefaultLimit {
		t.Fatalf("default limit not applied: %d, %v", p.Limit, err)
	}
}

func TestParseTime(t *testing.T) {
	if ms, err := ParseTime(""); err != nil || ms != 0 {
		t.Fatalf("empty = %d, %v", ms, err)
	}
	if ms, err := ParseTime("1706486400000"); err != nil || ms != 1706486400000 {
		t.Fatalf("millis = %d, %v", ms, err)
	}
	if ms, err := ParseTime("2024-01-30T00:00:00Z"); err != nil || ms != trace.DayStart(1).UnixMilli() {
		t.Fatalf("rfc3339 = %d, %v", ms, err)
	}
	if ms, err := ParseTime("day:2"); err != nil || ms != trace.DayStart(2).UnixMilli() {
		t.Fatalf("day:N = %d, %v", ms, err)
	}
	if _, err := ParseTime("next tuesday"); err == nil {
		t.Fatal("garbage time accepted")
	}
}
