package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"telcolens/internal/faultfs"
	"telcolens/internal/trace"
)

// oracleVariants widens one query shape into the variants the oracle
// test runs: as is, aggregated, truncating at three rows with and
// without the aggregate, and — for a shape without a window — narrowed
// to day 2, scan fallback included for each.
func oracleVariants(tc queryShape) []queryShape {
	var out []queryShape
	add := func(name string, p Params) {
		out = append(out, queryShape{tc.name + name, p})
		p.NoIndex = true
		out = append(out, queryShape{tc.name + name + "/noindex", p})
	}
	p := tc.p
	add("", p)
	p.Aggregate = true
	add("/agg", p)
	p = tc.p
	p.Limit = 3
	add("/limit3", p)
	p.Aggregate = true
	add("/limit3-agg", p)
	if tc.p.From == 0 && tc.p.To == 0 {
		day2 := trace.DayRange(2, 2)
		p = tc.p
		p.From, p.To = day2.MinTS, day2.MaxTS
		add("/day2", p)
	}
	return out
}

// TestQueryMatchesSerialOracle holds the parallel engine to the serial
// partition loop it replaced (execSerial). Over every queryShapes query
// and its oracleVariants, at two block sizes, with index footers that
// decode and with damaged ones, and at GOMAXPROCS 1 and 4, rows, truncation and
// aggregate must be the oracle's JSON bytes and the ground truth's
// rows. Metrics must equal the oracle's, except for a query that
// truncated without an aggregate at GOMAXPROCS 4; then they must lie
// between the oracle's (which stops opening partitions at the limit)
// and the oracle's for the aggregated query (which reads every
// survivor), whatever the schedule, and opened plus pruned partitions
// must add up to those considered. At GOMAXPROCS 1 the scan's one
// worker stops claiming partitions at the merge that hits the limit,
// so a truncated query reads exactly what the oracle reads.
// A context canceled mid-scan must fail the query with its error and
// leave nothing cached.
func TestQueryMatchesSerialOracle(t *testing.T) {
	c := genCorpus(29, 3, 2, 900)
	var shapes []queryShape
	for _, tc := range queryShapes(c) {
		shapes = append(shapes, oracleVariants(tc)...)
	}
	stores := []struct {
		name    string
		opts    trace.FileStoreOptions
		noIndex bool
	}{
		{"block64", trace.FileStoreOptions{BlockRecords: 64}, false},
		{"block64-noindex", trace.FileStoreOptions{BlockRecords: 64}, true},
		{"block4096", trace.FileStoreOptions{}, false},
	}
	ctx := context.Background()
	truncated := 0
	for _, sc := range stores {
		dir := t.TempDir()
		fs := c.write(t, dir, sc.opts)
		if sc.noIndex {
			damageFooters(t, dir, "byte-flipped")
		}
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs%d", sc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				eng := New(fs)
				v, err := NewView(fs)
				if err != nil {
					t.Fatal(err)
				}
				for _, tc := range shapes {
					got, _, err := eng.Query(ctx, v, tc.p)
					if err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
					want, err := execSerial(ctx, eng, v, tc.p)
					if err != nil {
						t.Fatalf("%s: oracle: %v", tc.name, err)
					}
					if g, w := mustJSON(t, got.Rows), mustJSON(t, want.Rows); g != w {
						t.Fatalf("%s: rows differ from the serial oracle:\ngot  %s\nwant %s", tc.name, g, w)
					}
					if g, w := mustJSON(t, got.Aggregate), mustJSON(t, want.Aggregate); g != w {
						t.Fatalf("%s: aggregate %s, serial oracle %s", tc.name, g, w)
					}
					truthRows, truthTrunc := c.expected(tc.p)
					if g, w := mustJSON(t, got.Rows), mustJSON(t, truthRows); g != w {
						t.Fatalf("%s: rows differ from ground truth:\ngot  %s\nwant %s", tc.name, g, w)
					}
					if got.Truncated != want.Truncated || got.Truncated != truthTrunc {
						t.Fatalf("%s: truncated %v, serial oracle %v, ground truth %v",
							tc.name, got.Truncated, want.Truncated, truthTrunc)
					}
					if got.Truncated && !tc.p.Aggregate {
						truncated++
					}
					if !got.Truncated || tc.p.Aggregate || procs == 1 {
						if got.Metrics != want.Metrics {
							t.Fatalf("%s: metrics %+v, serial oracle %+v", tc.name, got.Metrics, want.Metrics)
						}
						continue
					}
					full := tc.p
					full.Aggregate = true
					upper, err := execSerial(ctx, eng, v, full)
					if err != nil {
						t.Fatal(err)
					}
					checkTruncatedMetrics(t, tc.name, got.Metrics, want.Metrics, upper.Metrics)
				}
			})
		}
	}
	if truncated == 0 {
		t.Fatal("no variant truncated: the early stop went unchecked")
	}

	t.Run("cancel-mid-scan", func(t *testing.T) {
		fs := c.write(t, t.TempDir(), trace.FileStoreOptions{BlockRecords: 64})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cs := &cancelingStore{FileStore: fs, cancel: cancel, at: 3}
		eng := New(cs)
		v, err := NewView(cs)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{NoIndex: true, Aggregate: true} // every partition survives pruning
		if _, _, err := eng.Query(ctx, v, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("query canceled at its third open = %v, want context.Canceled", err)
		}
		if r := eng.Cached(v, p); r != nil {
			t.Fatal("a query canceled mid-scan left a cached result")
		}
		if n := cs.opens.Load(); n < 3 {
			t.Fatalf("the scan opened %d partitions; the cancel never fired mid-scan", n)
		}
		if st := eng.CacheStats(); st.Entries != 0 {
			t.Fatalf("cache holds %d entries after a canceled query", st.Entries)
		}
	})
}

// checkTruncatedMetrics bounds a truncated non-aggregate query's
// counters, which depend on how far the workers got before the merge
// hit the limit: at least the serial oracle's (every partition up to
// the truncating one is read whole either way), at most those of the
// full read of every survivor.
func checkTruncatedMetrics(t *testing.T, name string, got, serial, full Metrics) {
	t.Helper()
	if got.PartitionsConsidered != serial.PartitionsConsidered ||
		got.PartitionsPruned+got.PartitionsScanned != got.PartitionsConsidered {
		t.Fatalf("%s: partitions %+v do not add up (serial oracle %+v)", name, got, serial)
	}
	for _, f := range []struct {
		what        string
		got, lo, hi int64
	}{
		{"partitions scanned", got.PartitionsScanned, serial.PartitionsScanned, full.PartitionsScanned},
		{"partitions pruned", -got.PartitionsPruned, -serial.PartitionsPruned, -full.PartitionsPruned},
		{"blocks decoded", got.BlocksDecoded, serial.BlocksDecoded, full.BlocksDecoded},
		{"blocks pruned", got.BlocksPruned, serial.BlocksPruned, full.BlocksPruned},
		{"bytes read", got.BytesRead, serial.BytesRead, full.BytesRead},
		{"rows scanned", got.RowsScanned, serial.RowsScanned, full.RowsScanned},
	} {
		if f.got < f.lo || f.got > f.hi {
			t.Fatalf("%s: %s %d outside [serial oracle %d, full read %d]", name, f.what, f.got, f.lo, f.hi)
		}
	}
}

// cancelingStore cancels a query's context from inside its at-th
// partition open, while the scan's workers are mid-flight.
type cancelingStore struct {
	*trace.FileStore
	cancel context.CancelFunc
	at     int32
	opens  atomic.Int32
}

func (s *cancelingStore) OpenPartition(day, shard int) (trace.RecordIterator, error) {
	if s.opens.Add(1) == s.at {
		s.cancel()
	}
	return s.FileStore.OpenPartition(day, shard)
}

// TestQueryIgnoresReadCloseErrors: a failed close of a partition the
// query has read to its end loses nothing — the bytes were all read,
// and with VerifyReads checked against the manifest digest, before
// Close — so the engine drops it, as trace.Scan does for the analysis
// scan, and answers exactly what a clean store answers.
func TestQueryIgnoresReadCloseErrors(t *testing.T) {
	c := genCorpus(13, 2, 2, 600)
	dir := t.TempDir()
	c.write(t, dir, trace.FileStoreOptions{BlockRecords: 64})
	ff := faultfs.NewFault(nil, faultfs.Plan{Rules: []faultfs.Rule{
		{Op: faultfs.OpClose, Path: "*.tlho", Kind: faultfs.KindErr, Times: 1 << 20},
	}})
	fs, err := trace.NewFileStoreOpts(dir, trace.FileStoreOptions{FS: ff, VerifyReads: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{NoIndex: true, Aggregate: true}
	res, _, err := New(fs).Query(context.Background(), v, p)
	if err != nil {
		t.Fatalf("a close fault failed the query: %v", err)
	}
	if len(ff.Fired()) == 0 {
		t.Fatal("no close fault fired")
	}
	want, _ := c.expected(p)
	if g, w := mustJSON(t, res.Rows), mustJSON(t, want); g != w {
		t.Fatalf("rows under close faults differ from ground truth:\ngot  %s\nwant %s", g, w)
	}
}
