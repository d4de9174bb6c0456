package simulate

import (
	"sort"
	"testing"

	"telcolens/internal/trace"
)

func shardedConfig(t *testing.T, seed uint64, shards int) Config {
	cfg := DefaultConfig(seed)
	cfg.UEs = 800
	cfg.Days = 3
	cfg.Shards = shards
	cfg.Store = tempStore(t)
	return cfg
}

func collectRecords(t *testing.T, s trace.Store) []trace.Record {
	t.Helper()
	var recs []trace.Record
	if err := trace.ForEach(s, func(_ int, r *trace.Record) error {
		recs = append(recs, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestShardedGenerationSameRecords(t *testing.T) {
	one, err := Generate(shardedConfig(t, 21, 1))
	if err != nil {
		t.Fatal(err)
	}
	four, err := Generate(shardedConfig(t, 21, 4))
	if err != nil {
		t.Fatal(err)
	}

	parts, err := four.Config.Store.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3*4 {
		t.Fatalf("%d partitions, want 12", len(parts))
	}

	// Every record lands in the shard its UE hashes to, time-ordered
	// within the partition.
	for _, p := range parts {
		it, err := four.Config.Store.OpenPartition(p.Day, p.Shard)
		if err != nil {
			t.Fatal(err)
		}
		var cb trace.ColumnBatch
		var prevTs int64
		for {
			n, err := it.NextColumns(&cb)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				if got := trace.ShardOf(cb.UEs[i], 4); got != p.Shard {
					t.Fatalf("UE %d in shard %d, hashes to %d", cb.UEs[i], p.Shard, got)
				}
				if cb.Timestamps[i] < prevTs {
					t.Fatalf("day %d shard %d not time-ordered", p.Day, p.Shard)
				}
				prevTs = cb.Timestamps[i]
			}
		}
		it.Close()
	}

	// Same seed, same record multiset regardless of sharding.
	a := collectRecords(t, one.Config.Store)
	b := collectRecords(t, four.Config.Store)
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	canon := func(rs []trace.Record) {
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Timestamp != rs[j].Timestamp {
				return rs[i].Timestamp < rs[j].Timestamp
			}
			if rs[i].UE != rs[j].UE {
				return rs[i].UE < rs[j].UE
			}
			return rs[i].Source < rs[j].Source
		})
	}
	canon(a)
	canon(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs between shard counts:\n1 shard:  %+v\n4 shards: %+v", i, a[i], b[i])
		}
	}
}

func TestShardCap(t *testing.T) {
	cfg := shardedConfig(t, 5, 300)
	if _, err := Generate(cfg); err == nil {
		t.Fatal("300 shards accepted")
	}
}

func TestShardedManifestRoundTrip(t *testing.T) {
	cfg := shardedConfig(t, 33, 3)
	dir := cfg.Store.(*trace.FileStore).Dir()
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveManifest(dir); err != nil {
		t.Fatal(err)
	}
	re, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Config.Shards != 3 {
		t.Fatalf("reloaded shards = %d, want 3", re.Config.Shards)
	}
	n1, err := trace.Count(ds.Config.Store)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := trace.Count(re.Config.Store)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || n1 == 0 {
		t.Fatalf("reloaded store holds %d records, want %d", n2, n1)
	}
}
