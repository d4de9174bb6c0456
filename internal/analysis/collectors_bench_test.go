package analysis

import (
	"sync"
	"testing"

	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// Per-collector microbenchmarks: one day of generated records pushed
// through each collector's record path (Observe per record) and batch
// path (ObserveColumns per block-sized SoA chunk). The pair isolates
// where the vectorization pays, collector by collector.

var (
	collBenchOnce sync.Once
	collBenchDS   *simulate.Dataset
	collBenchErr  error
)

func collBenchDataset(b *testing.B) *simulate.Dataset {
	collBenchOnce.Do(func() {
		cfg := simulate.DefaultConfig(31)
		cfg.UEs = 1500
		cfg.Days = 2
		collBenchDS, collBenchErr = generateShared("collbench", cfg)
	})
	if collBenchErr != nil {
		b.Fatal(collBenchErr)
	}
	return collBenchDS
}

func BenchmarkCollectors(b *testing.B) {
	ds := collBenchDataset(b)
	env := newScanEnv(ds)
	parts, err := ds.Config.Store.Partitions()
	if err != nil {
		b.Fatal(err)
	}
	// Block-sized SoA chunks of day 0, as the scan engine delivers them.
	var chunks []*trace.ColumnBatch
	records := 0
	for _, p := range parts {
		if p.Day != 0 {
			continue
		}
		all := partitionBatch(b, ds.Config.Store, p)
		chunks = append(chunks, chunkBatch(all, trace.DefaultBlockRecords)...)
		records += all.Len()
	}

	for need, name := range map[Need]string{
		NeedTypes:     "types",
		NeedDurations: "durations",
		NeedCauses:    "causes",
		NeedTemporal:  "temporal",
		NeedDistricts: "districts",
		NeedUEDay:     "ueday",
		NeedSectorDay: "sectorday",
	} {
		b.Run(name, func(b *testing.B) {
			col := collectorFor(need, env)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := col.NewShardState(0, 0)
				for c := range chunks {
					if err := st.ObserveColumns(0, chunks[c]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
