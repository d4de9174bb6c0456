package trace

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// The composable scan engine: a Collector accumulates one analysis's
// state from the trace. Scan's workers claim the store's partitions in
// order, give every (collector, partition) pair its own ShardState, and
// fold the states back in canonical partition order, so the result is
// bit-for-bit independent of worker scheduling.

// ShardState accumulates one collector's view of a single partition.
// ObserveColumns is called once per decoded batch, in the partition's
// storage order, from exactly one goroutine. How a partition is cut into
// batches is up to the iterator, so a state must end up the same however
// its rows are chunked. The batch is engine-owned and reused — states
// must not retain its slices across calls.
type ShardState interface {
	ObserveColumns(day int, cols *ColumnBatch) error
}

// PartitionFinisher is an optional ShardState extension for work that
// depends on one partition alone. Scan calls FinishPartition exactly once
// per partition, on the worker that scanned it, after the partition's
// last ObserveColumns and before the state reaches MergeShard — so that
// work runs in parallel instead of on the serial merge. An error fails
// the scan like an ObserveColumns error. A partition whose read failed,
// or that was skipped after a failure or cancel, is never finished.
type PartitionFinisher interface {
	FinishPartition() error
}

// Collector builds per-partition states and folds them. NewShardState may
// be called from any goroutine. MergeShard is called exactly once per
// partition, in canonical (day, shard) order, with a state its worker has
// already finished (see PartitionFinisher). The calls come from whichever
// worker is folding, but never two at once, and each happens after the
// one before it.
type Collector interface {
	NewShardState(day, shard int) ShardState
	MergeShard(s ShardState) error
}

// TimeRange restricts a scan to records with
// MinTS <= Timestamp <= MaxTS (Unix milliseconds, inclusive bounds).
type TimeRange struct {
	MinTS int64
	MaxTS int64
}

// DayRange returns the TimeRange covering study days [fromDay, toDay]
// inclusive.
func DayRange(fromDay, toDay int) TimeRange {
	return TimeRange{
		MinTS: DayStart(fromDay).UnixMilli(),
		MaxTS: DayStart(toDay+1).UnixMilli() - 1,
	}
}

// ScanMetrics accumulates observability counters across a scan's
// workers. All fields are updated atomically; read them after Scan
// returns. A partition counts what it read even when a failure, a
// cancel or a MergeShard error stopped it part way.
type ScanMetrics struct {
	// Partitions is the number of partitions opened.
	Partitions atomic.Int64
	// Records is the number of records observed (post range filtering).
	Records atomic.Int64
	// BlocksRead / BlocksSkipped / BlocksFiltered count stream blocks
	// decoded, pruned by the time range, and vetoed by a BlockFilter
	// without decoding.
	BlocksRead     atomic.Int64
	BlocksSkipped  atomic.Int64
	BlocksFiltered atomic.Int64
	// BytesRead is the number of stored trace bytes consumed by decoded
	// data (see BlockStats.BytesRead).
	BytesRead atomic.Int64
}

// ScanOptions tunes a Scan.
type ScanOptions struct {
	// Parallelism bounds the number of partitions read concurrently;
	// 0 means GOMAXPROCS.
	Parallelism int
	// Progress, if set, is invoked after each partition is merged with
	// the number of merged partitions and the total. Like MergeShard it
	// runs on whichever worker is folding, one call at a time and in
	// order.
	Progress func(done, total int)
	// Range, if set, restricts the scan to records inside the window;
	// MinTS > MaxTS is an error. Partitions are still all opened
	// (partition naming carries no time bounds), and each iterator
	// applies the window itself (skipping whole blocks), so
	// collectors observe exactly the records inside it.
	Range *TimeRange
	// Projection, if nonzero, declares the columns the collectors read;
	// partitions skip decoding everything else. This is an optimization
	// hint — an iterator may ignore it and decode all fields — so
	// collectors must only read projected columns.
	// Timestamps are always decoded.
	Projection ColumnSet
	// Metrics, if set, receives scan counters.
	Metrics *ScanMetrics
	// Partitions, if non-nil, restricts the scan to exactly these
	// partitions instead of everything the store lists. Incremental
	// consumers use it to scan only the delta a manifest diff reported,
	// and the query engine the partitions its pruning kept; order is
	// normalized to canonical (day, shard) either way.
	Partitions []Partition
	// BlockFilter, if set, is called once per partition on the worker
	// that opens it; a non-nil result becomes that iterator's block
	// filter (RecordIterator.SetBlockFilter). Like Projection it is a
	// hint: it may veto only blocks no collector needs a record of. The
	// query engine passes each partition's index allow-list through it.
	BlockFilter func(p Partition) func(block int) bool
}

// scanWindowPerWorker bounds how far a Scan reads ahead of its merge:
// with w workers, a partition is claimed only within 2w of the first one
// not yet merged, so the others read on past one slow partition.
const scanWindowPerWorker = 2

// columnBatchPool shares scan buffers across partitions and scans: the
// steady-state scan loop reuses batch memory, so after warm-up it
// allocates nothing per block.
var columnBatchPool = sync.Pool{New: func() any { return new(ColumnBatch) }}

// Scan streams every partition of the store through all collectors. Each
// partition is read once; records are observed in storage order within a
// partition, and per-partition states are merged in canonical order, so
// the outcome is deterministic for any parallelism level.
func Scan(ctx context.Context, s Store, opts ScanOptions, collectors ...Collector) error {
	if len(collectors) == 0 {
		return fmt.Errorf("trace: scan without collectors")
	}
	if tr := opts.Range; tr != nil && tr.MinTS > tr.MaxTS {
		return fmt.Errorf("trace: invalid time range [%d, %d]", tr.MinTS, tr.MaxTS)
	}
	parts := opts.Partitions
	if parts == nil {
		var err error
		parts, err = s.Partitions()
		if err != nil {
			return err
		}
	} else {
		parts = append([]Partition(nil), parts...)
	}
	if len(parts) == 0 {
		return nil
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].Less(parts[j]) })

	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(parts))
	window := scanWindowPerWorker * workers

	// Every worker, the caller included, runs one loop under mu: claim
	// the next partition while it lies within window of next, the first
	// one not yet merged; scan it unlocked; deposit its states. The worker
	// whose deposit readies pending[next] folds every ready partition in
	// order, calling MergeShard and Progress unlocked, and folding keeps
	// a second worker from folding meanwhile, so no claim or deposit waits
	// for a merge. The first error, or a cancel, stops every claim.
	var (
		mu            sync.Mutex
		moved         = sync.NewCond(&mu) // the window opened or the scan failed
		claimed, next int
		folding       bool
		pending       = make([][]ShardState, len(parts))
		scanErr       error
	)
	scanCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	failLocked := func(err error) {
		if scanErr == nil {
			scanErr = err
			cancel()
			moved.Broadcast()
		}
	}

	scanPartition := func(p Partition) ([]ShardState, error) {
		states := make([]ShardState, len(collectors))
		for c, col := range collectors {
			states[c] = col.NewShardState(p.Day, p.Shard)
		}
		it, err := s.OpenPartition(p.Day, p.Shard)
		if err != nil {
			return nil, err
		}
		// A read-only partition's close error is dropped: every byte was
		// read and, with VerifyReads, checked at end of stream before
		// Close, so a failed close(2) loses nothing.
		defer it.Close()
		var nRecs int64
		if opts.Metrics != nil {
			opts.Metrics.Partitions.Add(1)
			defer func() {
				opts.Metrics.Records.Add(nRecs)
				bs := it.ReadStats()
				opts.Metrics.BlocksRead.Add(bs.BlocksRead)
				opts.Metrics.BlocksSkipped.Add(bs.BlocksSkipped)
				opts.Metrics.BlocksFiltered.Add(bs.BlocksFiltered)
				opts.Metrics.BytesRead.Add(bs.BytesRead)
			}()
		}
		if opts.Range != nil {
			it.SetTimeRange(opts.Range.MinTS, opts.Range.MaxTS)
		}
		if opts.Projection != 0 && opts.Projection&AllColumns != AllColumns {
			it.SetProjection(opts.Projection)
		}
		if opts.BlockFilter != nil {
			if keep := opts.BlockFilter(p); keep != nil {
				it.SetBlockFilter(keep)
			}
		}
		// One SoA batch per decoded block, handed to every collector.
		cb := columnBatchPool.Get().(*ColumnBatch)
		defer columnBatchPool.Put(cb)
		for {
			if err := scanCtx.Err(); err != nil {
				return nil, err
			}
			n, err := it.NextColumns(cb)
			if err != nil {
				return nil, fmt.Errorf("trace: day %d shard %d: %w", p.Day, p.Shard, err)
			}
			if n == 0 {
				break
			}
			nRecs += int64(n)
			for _, st := range states {
				if err := st.ObserveColumns(p.Day, cb); err != nil {
					return nil, fmt.Errorf("trace: day %d shard %d: %w", p.Day, p.Shard, err)
				}
			}
		}
		for _, st := range states {
			if f, ok := st.(PartitionFinisher); ok {
				if err := f.FinishPartition(); err != nil {
					return nil, fmt.Errorf("trace: day %d shard %d: %w", p.Day, p.Shard, err)
				}
			}
		}
		return states, nil
	}

	work := func() {
		mu.Lock()
		defer mu.Unlock()
		for {
			for scanErr == nil && claimed < len(parts) && claimed >= next+window {
				moved.Wait()
			}
			if err := scanCtx.Err(); err != nil {
				failLocked(err)
			}
			if scanErr != nil || claimed == len(parts) {
				return
			}
			i := claimed
			claimed++
			mu.Unlock()
			states, err := scanPartition(parts[i])
			mu.Lock()
			if err != nil {
				failLocked(err)
				return
			}
			pending[i] = states
			for !folding && scanErr == nil && next < len(parts) && pending[next] != nil {
				ready, merged := pending[next], next+1
				pending[next], folding = nil, true
				mu.Unlock()
				for c := 0; c < len(collectors) && err == nil; c++ {
					err = collectors[c].MergeShard(ready[c])
				}
				if err == nil && opts.Progress != nil {
					opts.Progress(merged, len(parts))
				}
				mu.Lock()
				folding = false
				next = merged
				moved.Broadcast()
				if err != nil {
					failLocked(err)
				}
			}
		}
	}

	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if scanErr != nil {
		return scanErr
	}
	return ctx.Err()
}
