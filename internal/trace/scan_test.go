package trace

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildShardedStore writes records for nUEs over days, hash-partitioned
// into the given shard count, with deterministic content.
func buildShardedStore(t testing.TB, days, nUEs, shards int) *FileStore {
	t.Helper()
	s := tempStore(t)
	for day := 0; day < days; day++ {
		// Timestamp-ordered within the day; bucketed by UE hash.
		buckets := make([][]Record, shards)
		for i := 0; i < nUEs*4; i++ {
			ue := UEID(i % nUEs)
			rec := sampleRecord()
			rec.UE = ue
			rec.Timestamp = DayStart(day).UnixMilli() + int64(i)*1000
			sh := ShardOf(ue, shards)
			buckets[sh] = append(buckets[sh], rec)
		}
		for sh, recs := range buckets {
			writePartition(t, s, day, sh, recs)
		}
	}
	return s
}

// countingCollector counts records and day-weighted sums; both are exact
// integers, so any scan schedule must agree.
type countingCollector struct {
	total   int64
	daySum  int64
	merges  []Partition // order of MergeShard calls
	mergeMu sync.Mutex
}

type countingShard struct {
	part  Partition
	count int64
	dsum  int64
}

func (c *countingCollector) NewShardState(day, shard int) ShardState {
	return &countingShard{part: Partition{Day: day, Shard: shard}}
}

func (s *countingShard) ObserveColumns(day int, cb *ColumnBatch) error {
	for _, ue := range cb.UEs {
		s.count++
		s.dsum += int64(day)*1_000_003 + int64(ue)
	}
	return nil
}

func (c *countingCollector) MergeShard(st ShardState) error {
	s := st.(*countingShard)
	c.mergeMu.Lock()
	c.merges = append(c.merges, s.part)
	c.mergeMu.Unlock()
	c.total += s.count
	c.daySum += s.dsum
	return nil
}

func TestScanMatchesSequentialForEach(t *testing.T) {
	for _, shards := range []int{1, 4, 7} {
		s := buildShardedStore(t, 3, 50, shards)
		want := &countingCollector{}
		if err := Scan(context.Background(), s, ScanOptions{Parallelism: 1}, want); err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 4, 16} {
			got := &countingCollector{}
			if err := Scan(context.Background(), s, ScanOptions{Parallelism: par}, got); err != nil {
				t.Fatal(err)
			}
			if got.total != want.total || got.daySum != want.daySum {
				t.Fatalf("shards=%d parallelism=%d: got (%d, %d), want (%d, %d)",
					shards, par, got.total, got.daySum, want.total, want.daySum)
			}
		}
	}
}

func TestScanMergesInCanonicalOrder(t *testing.T) {
	s := buildShardedStore(t, 4, 30, 5)
	c := &countingCollector{}
	if err := Scan(context.Background(), s, ScanOptions{Parallelism: 8}, c); err != nil {
		t.Fatal(err)
	}
	if len(c.merges) != 20 {
		t.Fatalf("merged %d partitions, want 20", len(c.merges))
	}
	for i := 1; i < len(c.merges); i++ {
		if !c.merges[i-1].Less(c.merges[i]) {
			t.Fatalf("merge order not canonical at %d: %v then %v", i, c.merges[i-1], c.merges[i])
		}
	}
}

func TestScanProgress(t *testing.T) {
	s := buildShardedStore(t, 2, 20, 3)
	var events []int
	opts := ScanOptions{Parallelism: 2, Progress: func(done, total int) {
		if total != 6 {
			t.Fatalf("total = %d, want 6", total)
		}
		events = append(events, done)
	}}
	if err := Scan(context.Background(), s, opts, &countingCollector{}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 || events[0] != 1 || events[5] != 6 {
		t.Fatalf("progress events = %v", events)
	}
}

type failingCollector struct {
	countingCollector
	failObserveAt int64 // fail once N records were observed (0 = never)
	failMerge     bool
}

var errBoom = errors.New("boom")

type failingShard struct {
	c     *failingCollector
	inner ShardState
	seen  int64
}

func (c *failingCollector) NewShardState(day, shard int) ShardState {
	return &failingShard{c: c, inner: c.countingCollector.NewShardState(day, shard)}
}

func (s *failingShard) ObserveColumns(day int, cb *ColumnBatch) error {
	s.seen += int64(cb.Len())
	if s.c.failObserveAt > 0 && s.seen >= s.c.failObserveAt {
		return errBoom
	}
	return s.inner.ObserveColumns(day, cb)
}

func (c *failingCollector) MergeShard(st ShardState) error {
	if c.failMerge {
		return errBoom
	}
	return c.countingCollector.MergeShard(st.(*failingShard).inner)
}

func TestScanPropagatesObserveError(t *testing.T) {
	s := buildShardedStore(t, 2, 20, 4)
	c := &failingCollector{failObserveAt: 5}
	err := Scan(context.Background(), s, ScanOptions{Parallelism: 4}, c)
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
}

func TestScanPropagatesMergeError(t *testing.T) {
	s := buildShardedStore(t, 2, 20, 4)
	c := &failingCollector{failMerge: true}
	err := Scan(context.Background(), s, ScanOptions{Parallelism: 4}, c)
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
}

func TestScanCanceledContext(t *testing.T) {
	s := buildShardedStore(t, 3, 50, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Scan(ctx, s, ScanOptions{Parallelism: 4}, &countingCollector{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestScanWithoutCollectors(t *testing.T) {
	s := buildShardedStore(t, 1, 5, 1)
	if err := Scan(context.Background(), s, ScanOptions{}); err == nil {
		t.Fatal("collector-less scan accepted")
	}
}

// An inverted window is an error, on an empty store too, rather than a
// scan that observes nothing.
func TestScanRejectsInvertedRange(t *testing.T) {
	tr := DayRange(2, 1)
	for name, s := range map[string]Store{"records": buildShardedStore(t, 3, 5, 1), "empty": tempStore(t)} {
		c := &countingCollector{}
		err := Scan(context.Background(), s, ScanOptions{Range: &tr}, c)
		if err == nil || !strings.Contains(err.Error(), "invalid time range") {
			t.Fatalf("%s: err = %v, want an invalid time range error", name, err)
		}
		if c.total != 0 {
			t.Fatalf("%s: observed %d records", name, c.total)
		}
	}
}

// TestScanCountsEveryCodec: a full parallel scan of a file store observes
// exactly the records written to it, and as many as the manifest counts,
// at several block sizes. A store whose streams name a format earlier
// versions wrote (v1, v2, flate, TLZ, v3 with a sidecar) fails the scan
// with ErrBadVersion, naming the format and telcogen, instead of
// counting short.
func TestScanCountsEveryCodec(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		name           string
		blockRecords   int
		version, flags uint16 // header stamped over v3 streams; 0 keeps them
	}{
		{name: "v3", blockRecords: 100},
		{name: "v3-block4096", blockRecords: DefaultBlockRecords},
		{name: "v1", blockRecords: 100, version: 1},
		{name: "v2", blockRecords: 100, version: 2},
		{name: "v2flate", blockRecords: 100, version: 2, flags: 1},
		{name: "v3flate", blockRecords: 100, version: 3, flags: 1},
		{name: "v3tlz", blockRecords: 100, version: 3, flags: 2},
		{name: "v3sidecar", blockRecords: 100, version: 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs, err := NewFileStoreOpts(t.TempDir(), FileStoreOptions{BlockRecords: c.blockRecords})
			if err != nil {
				t.Fatal(err)
			}
			var written int64
			for day := 0; day < 3; day++ {
				for shard := 0; shard < 2; shard++ {
					recs := make([]Record, 150+r.Intn(300))
					for i := range recs {
						recs[i] = randRecord(r, DayStart(day).UnixMilli())
					}
					sort.Slice(recs, func(i, j int) bool { return recs[i].Timestamp < recs[j].Timestamp })
					writePartition(t, fs, day, shard, recs)
					written += int64(len(recs))
				}
			}
			if c.version != 0 {
				stampHeader(t, fs, c.version, c.flags)
			}
			col := &countingCollector{}
			err = Scan(context.Background(), fs, ScanOptions{Parallelism: 2}, col)
			total, cerr := Count(fs)
			if cerr != nil {
				t.Fatal(cerr)
			}
			if total != written {
				t.Fatalf("manifest counts %d, wrote %d", total, written)
			}
			if c.version != 0 {
				if !errors.Is(err, ErrBadVersion) || !strings.Contains(err.Error(), c.name[:2]) ||
					!strings.Contains(err.Error(), "telcogen") {
					t.Fatalf("scan over v%d flags %#x streams: err = %v, want ErrBadVersion naming %s and telcogen",
						c.version, c.flags, err, c.name[:2])
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if col.total != written {
				t.Fatalf("scan saw %d records, wrote %d", col.total, written)
			}
		})
	}
}

func TestScanEmptyStore(t *testing.T) {
	if err := Scan(context.Background(), tempStore(t), ScanOptions{}, &countingCollector{}); err != nil {
		t.Fatal(err)
	}
}

func TestShardOfStableAndBounded(t *testing.T) {
	for _, shards := range []int{1, 2, 8, 13} {
		counts := make([]int, shards)
		for ue := 0; ue < 10000; ue++ {
			sh := ShardOf(UEID(ue), shards)
			if sh < 0 || sh >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", ue, shards, sh)
			}
			if sh != ShardOf(UEID(ue), shards) {
				t.Fatal("ShardOf not deterministic")
			}
			counts[sh]++
		}
		// Hash partitioning should be roughly balanced.
		for sh, n := range counts {
			want := 10000 / shards
			if n < want/2 || n > want*2 {
				t.Fatalf("shard %d/%d holds %d of 10000 UEs (want ≈%d)", sh, shards, n, want)
			}
		}
	}
}

// errIterator fails after its first batch; its store tracks Close calls
// so the test can assert no iterator leaks on the error path.
type errStore struct {
	*FileStore
	mu     sync.Mutex
	opened int
	closed int
}

func (e *errStore) OpenPartition(day, shard int) (RecordIterator, error) {
	it, err := e.FileStore.OpenPartition(day, shard)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.opened++
	e.mu.Unlock()
	return &errIterator{RecordIterator: it, store: e}, nil
}

type errIterator struct {
	RecordIterator
	store *errStore
	n     int
}

func (it *errIterator) NextColumns(cb *ColumnBatch) (int, error) {
	it.n++
	if it.n > 1 {
		return 0, fmt.Errorf("disk gremlin")
	}
	return it.RecordIterator.NextColumns(cb)
}

func (it *errIterator) Close() error {
	it.store.mu.Lock()
	it.store.closed++
	it.store.mu.Unlock()
	return it.RecordIterator.Close()
}

func TestScanClosesIteratorsOnReadError(t *testing.T) {
	es := &errStore{FileStore: tempStore(t)}
	for day := 0; day < 2; day++ {
		recs := make([]Record, 10)
		for i := range recs {
			recs[i] = sampleRecord()
			recs[i].Timestamp = DayStart(day).UnixMilli() + int64(i)
		}
		writePartition(t, es, day, 0, recs)
	}
	err := Scan(context.Background(), es, ScanOptions{Parallelism: 2}, &countingCollector{})
	if err == nil {
		t.Fatal("read error not propagated")
	}
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.opened == 0 || es.opened != es.closed {
		t.Fatalf("iterator leak: opened %d, closed %d", es.opened, es.closed)
	}
}

// finishCollector checks the PartitionFinisher contract from inside the
// scan: every state records its batches and finishes, and the merge
// checks that it receives a state finished exactly once, after its last
// batch. failObserve/failFinish name a partition whose ObserveColumns or
// FinishPartition fails; onFinish and onMerge, if set, run on each
// finish and before each merge.
type finishCollector struct {
	failObserve, failFinish *Partition
	onFinish, onMerge       func(Partition)

	mu         sync.Mutex
	finished   map[Partition]int
	merged     []Partition
	violations []string
}

type finishShard struct {
	c        *finishCollector
	part     Partition
	batches  int
	finishes int
}

func (c *finishCollector) NewShardState(day, shard int) ShardState {
	return &finishShard{c: c, part: Partition{Day: day, Shard: shard}}
}

func (c *finishCollector) violate(format string, args ...any) {
	c.mu.Lock()
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (s *finishShard) ObserveColumns(day int, cb *ColumnBatch) error {
	if s.finishes != 0 {
		s.c.violate("%v: ObserveColumns after FinishPartition", s.part)
	}
	s.batches++
	if s.c.failObserve != nil && *s.c.failObserve == s.part {
		return errBoom
	}
	return nil
}

func (s *finishShard) FinishPartition() error {
	s.finishes++
	s.c.mu.Lock()
	if s.c.finished == nil {
		s.c.finished = make(map[Partition]int)
	}
	s.c.finished[s.part]++
	s.c.mu.Unlock()
	if s.c.onFinish != nil {
		s.c.onFinish(s.part)
	}
	if s.c.failFinish != nil && *s.c.failFinish == s.part {
		return errBoom
	}
	return nil
}

func (c *finishCollector) MergeShard(st ShardState) error {
	s := st.(*finishShard)
	if c.onMerge != nil {
		c.onMerge(s.part)
	}
	if s.finishes != 1 || s.batches == 0 {
		c.violate("%v: merged after %d finishes and %d batches, want 1 finish after every batch", s.part, s.finishes, s.batches)
	}
	c.mu.Lock()
	c.merged = append(c.merged, s.part)
	c.mu.Unlock()
	return nil
}

func TestScanFinishPartitionContract(t *testing.T) {
	s := buildShardedStore(t, 3, 40, 4)
	for _, par := range []int{1, 4, 16} {
		c := &finishCollector{}
		if err := Scan(context.Background(), s, ScanOptions{Parallelism: par}, c, &countingCollector{}); err != nil {
			t.Fatal(err)
		}
		if len(c.violations) > 0 {
			t.Fatalf("parallelism=%d: %v", par, c.violations)
		}
		if len(c.merged) != 12 || len(c.finished) != 12 {
			t.Fatalf("parallelism=%d: %d merges and %d finished partitions, want 12 each", par, len(c.merged), len(c.finished))
		}
		for p, n := range c.finished {
			if n != 1 {
				t.Fatalf("parallelism=%d: %v finished %d times", par, p, n)
			}
		}
	}
}

// TestScanFinishPartitionOnWorker holds the merge of the first partition
// until the second partition is finished. Were FinishPartition called on
// the merge goroutine, that could never happen.
func TestScanFinishPartitionOnWorker(t *testing.T) {
	s := buildShardedStore(t, 2, 40, 2)
	second := Partition{Day: 0, Shard: 1}
	secondDone := make(chan struct{})
	c := &finishCollector{}
	c.onFinish = func(p Partition) {
		if p == second {
			close(secondDone)
		}
	}
	c.onMerge = func(p Partition) {
		if p != (Partition{Day: 0, Shard: 0}) {
			return
		}
		select {
		case <-secondDone:
		case <-time.After(10 * time.Second):
			c.violate("partition %v was not finished while the merge waited", second)
		}
	}
	if err := Scan(context.Background(), s, ScanOptions{Parallelism: 2}, c); err != nil {
		t.Fatal(err)
	}
	if len(c.violations) > 0 {
		t.Fatal(c.violations)
	}
}

func TestScanFinishPartitionSkippedAfterFailure(t *testing.T) {
	s := buildShardedStore(t, 3, 40, 2)
	bad := Partition{Day: 1, Shard: 0}
	c := &finishCollector{failObserve: &bad}
	err := Scan(context.Background(), s, ScanOptions{Parallelism: 1}, c)
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	// One worker scans in canonical order: the two partitions before the
	// failing one are finished, it and everything after are not.
	want := map[Partition]int{{Day: 0, Shard: 0}: 1, {Day: 0, Shard: 1}: 1}
	if fmt.Sprint(c.finished) != fmt.Sprint(want) {
		t.Fatalf("finished %v, want %v", c.finished, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c = &finishCollector{}
	if err := Scan(ctx, s, ScanOptions{Parallelism: 4}, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(c.finished) != 0 {
		t.Fatalf("a canceled scan finished %v", c.finished)
	}
}

func TestScanFinishPartitionError(t *testing.T) {
	s := buildShardedStore(t, 2, 40, 4)
	bad := Partition{Day: 1, Shard: 2}
	c := &finishCollector{failFinish: &bad}
	err := Scan(context.Background(), s, ScanOptions{Parallelism: 4}, c)
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	if !strings.Contains(err.Error(), "day 1 shard 2") {
		t.Fatalf("err = %v, want the failing partition named", err)
	}
	for _, p := range c.merged {
		if p == bad {
			t.Fatalf("partition %v merged after its finish failed", p)
		}
	}
}

// liveStore counts partition opens and, if slow is set, holds that
// partition's open until no other open has landed for a while (the
// other workers have stalled) or a timer fires.
type liveStore struct {
	*FileStore
	slow   *Partition
	mu     sync.Mutex
	opened []Partition
}

func (s *liveStore) opens() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.opened)
}

func (s *liveStore) OpenPartition(day, shard int) (RecordIterator, error) {
	p := Partition{Day: day, Shard: shard}
	s.mu.Lock()
	s.opened = append(s.opened, p)
	s.mu.Unlock()
	if s.slow != nil && *s.slow == p {
		deadline := time.Now().Add(5 * time.Second)
		for last, quiet := s.opens(), 0; quiet < 5 && time.Now().Before(deadline); {
			time.Sleep(20 * time.Millisecond)
			if n := s.opens(); n != last {
				last, quiet = n, 0
			} else {
				quiet++
			}
		}
	}
	return s.FileStore.OpenPartition(day, shard)
}

// liveCollector counts live states (made by NewShardState and not yet
// merged) and keeps the highest count; failAt, if set, names the
// partition whose MergeShard fails.
type liveCollector struct {
	countingCollector
	failAt        *Partition
	live, maxLive int
	liveMu        sync.Mutex
}

func (c *liveCollector) NewShardState(day, shard int) ShardState {
	c.liveMu.Lock()
	c.live++
	c.maxLive = max(c.maxLive, c.live)
	c.liveMu.Unlock()
	return c.countingCollector.NewShardState(day, shard)
}

func (c *liveCollector) MergeShard(st ShardState) error {
	c.liveMu.Lock()
	c.live--
	c.liveMu.Unlock()
	if c.failAt != nil && st.(*countingShard).part == *c.failAt {
		return errBoom
	}
	return c.countingCollector.MergeShard(st)
}

// TestScanBoundsLiveStates: with the first partition held slow, the
// other workers claim only inside the window ahead of the merge, so at
// most scanWindowPerWorker*workers states are live and the result is
// that of an unslowed scan. After a MergeShard error at partition k no
// partition at or past k+window is opened.
func TestScanBoundsLiveStates(t *testing.T) {
	const workers = 4
	window := scanWindowPerWorker * workers
	fs := buildShardedStore(t, 6, 40, 4)
	parts, err := fs.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) <= 2*window {
		t.Fatalf("%d partitions leave no room past a window of %d", len(parts), window)
	}
	want := &countingCollector{}
	if err := Scan(context.Background(), fs, ScanOptions{Parallelism: workers}, want); err != nil {
		t.Fatal(err)
	}

	s := &liveStore{FileStore: fs, slow: &parts[0]}
	got := &liveCollector{}
	if err := Scan(context.Background(), s, ScanOptions{Parallelism: workers}, got); err != nil {
		t.Fatal(err)
	}
	if got.maxLive > window {
		t.Fatalf("%d states live at once, want at most the window of %d", got.maxLive, window)
	}
	if got.total != want.total || got.daySum != want.daySum || fmt.Sprint(got.merges) != fmt.Sprint(want.merges) {
		t.Fatalf("slowed scan got (%d, %d) merged %v, unslowed (%d, %d) merged %v",
			got.total, got.daySum, got.merges, want.total, want.daySum, want.merges)
	}

	const k = 2
	s = &liveStore{FileStore: fs}
	c := &liveCollector{failAt: &parts[k]}
	if err := Scan(context.Background(), s, ScanOptions{Parallelism: workers}, c); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	for _, p := range s.opened {
		if i := sort.Search(len(parts), func(i int) bool { return !parts[i].Less(p) }); i >= k+window {
			t.Fatalf("opened partition %d (%v) after the merge of partition %d failed, window %d", i, p, k, window)
		}
	}
}
