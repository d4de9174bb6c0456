package query

import (
	"context"
	"fmt"
	"math"

	"telcolens/internal/analysis"
	"telcolens/internal/trace"
)

// execSerial is the oracle for Engine.exec: the engine's earlier
// one-goroutine partition loop, which prunes, opens, decodes and
// re-checks every partition in canonical order and stops opening
// partitions once a non-aggregate query has truncated. The parallel
// engine must return the same rows, truncation and aggregate for every
// query, and the same Metrics for every query that does not truncate.
func execSerial(ctx context.Context, e *Engine, v *View, p Params) (*Result, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	res := &Result{Gen: v.Gen, Rows: []Row{}}
	m := &res.Metrics

	from, to := p.From, p.To
	if to == 0 {
		to = math.MaxInt64
	}
	window := p.From != 0 || p.To != 0

	var tracker *analysis.UESliceTracker
	var agg analysis.UESliceAggregate
	if p.Aggregate {
		tracker = analysis.NewUESliceTracker()
	}

	var rec trace.Record
	var cb trace.ColumnBatch
	for i := range v.Partitions {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pi := &v.Partitions[i]
		m.PartitionsConsidered++
		if res.Truncated && !p.Aggregate {
			m.PartitionsPruned++
			continue
		}
		if pi.Records > 0 && (pi.MaxTS < from || pi.MinTS > to) {
			m.PartitionsPruned++
			continue
		}
		if p.UE != nil {
			if k, ok := v.shardsOf[pi.Day]; ok && k > 1 && trace.ShardOf(*p.UE, k) != pi.Shard {
				m.PartitionsPruned++
				continue
			}
		}
		var allow []bool
		if !p.NoIndex && e.idx != nil {
			if idx := v.partitionIndex(i, e.idx); idx != nil {
				if (p.UE != nil && !idx.MayContainUE(*p.UE)) ||
					(p.TAC != nil && !idx.MayContainTAC(*p.TAC)) ||
					(p.Sector != nil && !idx.MayContainSector(*p.Sector)) {
					m.PartitionsPruned++
					m.BlocksPruned += int64(len(idx.Blocks))
					continue
				}
				if len(idx.Blocks) > 0 {
					allow = make([]bool, len(idx.Blocks))
					any := false
					for b := range idx.Blocks {
						bs := &idx.Blocks[b]
						ok := bs.MaxTS >= from && bs.MinTS <= to
						if ok && p.UE != nil {
							ok = bs.UEs.MayContain(uint32(*p.UE))
						}
						if ok && p.TAC != nil {
							ok = bs.TACs.MayContain(*p.TAC)
						}
						allow[b] = ok
						any = any || ok
					}
					if !any {
						m.PartitionsPruned++
						m.BlocksPruned += int64(len(idx.Blocks))
						continue
					}
				}
			}
		}

		it, err := e.store.OpenPartition(pi.Day, pi.Shard)
		if err != nil {
			return nil, err
		}
		m.PartitionsScanned++
		if window {
			it.SetTimeRange(from, to)
		}
		if allow != nil {
			keep := allow
			it.SetBlockFilter(func(b int) bool { return b >= len(keep) || keep[b] })
		}
		for {
			if err := ctx.Err(); err != nil {
				it.Close()
				return nil, err
			}
			n, err := it.NextColumns(&cb)
			if err != nil {
				it.Close()
				return nil, fmt.Errorf("query: day %d shard %d: %w", pi.Day, pi.Shard, err)
			}
			if n == 0 {
				break
			}
			m.RowsScanned += int64(n)
			for j := 0; j < n; j++ {
				if !p.matches(cb.Timestamps[j], cb.UEs[j], uint32(cb.TACs[j]), uint32(cb.Sources[j]), uint32(cb.Targets[j])) {
					continue
				}
				if tracker != nil {
					tracker.ObserveRow(&cb, j)
				}
				if len(res.Rows) < p.Limit {
					cb.Record(j, &rec)
					res.Rows = append(res.Rows, rowFrom(&rec))
				} else {
					res.Truncated = true
				}
			}
		}
		bs := it.ReadStats()
		m.BlocksDecoded += bs.BlocksRead
		m.BlocksPruned += bs.BlocksSkipped + bs.BlocksFiltered
		m.BytesRead += bs.BytesRead
		if err := it.Close(); err != nil {
			return nil, err
		}
	}
	if tracker != nil {
		agg = tracker.Aggregate()
		if p.UE == nil {
			agg.PingPongs = nil
		}
		res.Aggregate = &agg
	}
	return res, nil
}
