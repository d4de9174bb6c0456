package simulate

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"telcolens/internal/trace"
)

// pinConfig is the small campaign the generation pins share: the default
// world (320 districts, 2400 sites — the geometry the planner's spatial
// index serves) with a population small enough to generate in well under
// a second.
func pinConfig(t *testing.T, seed uint64, shards, workers int) Config {
	t.Helper()
	store, err := trace.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(seed)
	cfg.UEs = 400
	cfg.Days = 2
	cfg.Shards = shards
	cfg.Workers = workers
	cfg.Store = store
	return cfg
}

// partitionsDigest condenses a store's MANIFEST — every partition's key,
// record count, stored size and content fingerprint — into one string.
func partitionsDigest(t *testing.T, s trace.Store) string {
	t.Helper()
	m, err := s.Manifest()
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	h := sha256.New()
	for _, p := range m.Partitions {
		fmt.Fprintf(h, "%d/%d:%d:%d:%016x\n", p.Day, p.Shard, p.Records, p.Bytes, p.Fingerprint)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// recordsDigest condenses every decoded record of a store, in canonical
// partition order, into one string. It hashes column values, not stream
// bytes, so it is the same whichever format the partitions are stored in.
func recordsDigest(t *testing.T, s trace.Store) string {
	t.Helper()
	parts, err := s.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var cb trace.ColumnBatch
	var buf []byte
	for _, p := range parts {
		it, err := s.OpenPartition(p.Day, p.Shard)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d/%d\n", p.Day, p.Shard)
		for {
			n, err := it.NextColumns(&cb)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(cb.Timestamps[i]))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(cb.UEs[i]))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(cb.TACs[i]))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(cb.Sources[i]))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(cb.Targets[i]))
				buf = binary.LittleEndian.AppendUint16(buf, uint16(cb.Causes[i]))
				buf = append(buf, cb.RATs[i], byte(cb.Results[i]))
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(cb.Durations[i]))
				h.Write(buf)
			}
		}
		it.Close()
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// dayStatsDigest condenses the campaign descriptor's per-day aggregates
// bit for bit (floats by their IEEE representation).
func dayStatsDigest(stats []DayAggregate) string {
	h := sha256.New()
	put := func(v uint64) { binary.Write(h, binary.LittleEndian, v) }
	for _, d := range stats {
		for r := 0; r < 4; r++ {
			put(math.Float64bits(d.RATTimeHours[r]))
			put(math.Float64bits(d.ULMB[r]))
			put(math.Float64bits(d.DLMB[r]))
		}
		put(uint64(d.Handovers))
		put(uint64(d.Failures))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestGenerateByteIdenticalToParent pins what generation produces.
// records is the decoded record content, recorded when campaigns were
// still written as v2: every format must reproduce it. parts pins the
// MANIFEST of the v4 partitions written today, each ending with its
// index footer; dstats the day aggregates,
// recorded from the sequential Workers=1 run every worker count must
// reproduce. A change that moves records or dstats changed what the
// simulator generates; one that moves only parts changed the stream
// encoding.
func TestGenerateByteIdenticalToParent(t *testing.T) {
	pins := []struct {
		seed                   uint64
		shards                 int
		records, parts, dstats string
	}{
		{7, 1, "45ef30cef876883c", "a0172a4a1dbcfc82", "01feb4ad91fbd04d"},
		{7, 4, "622bfe60e56dd13c", "b9cfc63d3cec7a82", "01feb4ad91fbd04d"},
		{11, 1, "84ff9cfaabed560d", "2bd7c29699234da0", "0e18cf44bc65d1af"},
		{11, 4, "aab09ec19bda559a", "1c9b0ddc1235e58a", "0e18cf44bc65d1af"},
		{42, 1, "714e112fcc20c2f9", "99cc287cef6b52ab", "912e2d2edf8027f9"},
		{42, 4, "5fbd4bbfe170ba0b", "50f44d4559030581", "912e2d2edf8027f9"},
	}
	for _, pin := range pins {
		ds, err := Generate(pinConfig(t, pin.seed, pin.shards, 0))
		if err != nil {
			t.Fatal(err)
		}
		records, parts, dstats := recordsDigest(t, ds.Config.Store), partitionsDigest(t, ds.Config.Store), dayStatsDigest(ds.DayStats)
		if records != pin.records || parts != pin.parts || dstats != pin.dstats {
			t.Errorf("seed %d shards %d: records %s partitions %s day stats %s, pinned %s / %s / %s",
				pin.seed, pin.shards, records, parts, dstats, pin.records, pin.parts, pin.dstats)
		}
	}
}

// TestGenerateWorkerCountInvariant is the determinism contract of the
// campaign descriptor: partitions AND day aggregates are a function of
// (seed, config) alone. The aggregates are floating-point sums, which is
// where a per-worker partial-sum scheme leaks the core count into
// manifest.json; folding per-UE contributions in UE order does not.
func TestGenerateWorkerCountInvariant(t *testing.T) {
	var wantParts, wantStats string
	for _, workers := range []int{1, 2, 3, 8} {
		ds, err := Generate(pinConfig(t, 7, 2, workers))
		if err != nil {
			t.Fatal(err)
		}
		parts, dstats := partitionsDigest(t, ds.Config.Store), dayStatsDigest(ds.DayStats)
		if workers == 1 {
			wantParts, wantStats = parts, dstats
			continue
		}
		if parts != wantParts {
			t.Errorf("Workers=%d: partitions %s, Workers=1 %s", workers, parts, wantParts)
		}
		if dstats != wantStats {
			t.Errorf("Workers=%d: day aggregates %s, Workers=1 %s — the descriptor depends on the worker count",
				workers, dstats, wantStats)
		}
	}
}

// TestGenerateRaceFree runs a four-worker generation for the race
// detector (the CI determinism job selects it): workers share the EPC,
// the planner and the world read-only and own everything they write.
// The per-worker EPC accounting must add up to the generated records.
func TestGenerateRaceFree(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.UEs = 400
	cfg.Days = 2
	cfg.Workers = 4
	cfg.Store = tempStore(t)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total, err := trace.Count(ds.Config.Store)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || ds.TotalHandovers() != total {
		t.Fatalf("%d records in the store, day aggregates count %d", total, ds.TotalHandovers())
	}
	if got := ds.EPC.MME.Stats.Handovers; got != total {
		t.Fatalf("MME accounted %d handovers after the per-worker merge, store holds %d", got, total)
	}
	var failures int64
	for _, d := range ds.DayStats {
		failures += d.Failures
	}
	if got := ds.EPC.MME.Stats.Failures; got != failures {
		t.Fatalf("MME accounted %d failures, day aggregates %d", got, failures)
	}
	if ds.EPC.SGSN.Stats.Handovers == 0 {
		t.Fatal("SGSN saw no inter-RAT handover")
	}
}
