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
	store, err := trace.NewFileStoreOpts(t.TempDir(), trace.FileStoreOptions{Codec: trace.CodecV2})
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
	m, err := s.(trace.ManifestReader).Manifest()
	if err != nil || m == nil {
		t.Fatalf("manifest: %v (nil: %v)", err, m == nil)
	}
	h := sha256.New()
	for _, p := range m.Partitions {
		fmt.Fprintf(h, "%d/%d:%d:%d:%016x\n", p.Day, p.Shard, p.Records, p.Bytes, p.Fingerprint)
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

// TestGenerateByteIdenticalToParent pins generation to the bytes it
// produced before the planner's brute-force geometry was replaced by the
// spatial index and trig tables: MANIFEST digests recorded from the
// parent commit (PR 11, 9a05957), and day-aggregate digests recorded
// from its Workers=1 run — the sequential sums every worker count must
// now reproduce. A change that moves any of these changed what the
// simulator generates, not merely how fast.
func TestGenerateByteIdenticalToParent(t *testing.T) {
	pins := []struct {
		seed          uint64
		shards        int
		parts, dstats string
	}{
		{7, 1, "acc3497543fea24f", "01feb4ad91fbd04d"},
		{7, 4, "0253456e0e935c17", "01feb4ad91fbd04d"},
		{11, 1, "a6f48017991e0d26", "0e18cf44bc65d1af"},
		{11, 4, "b6cf72baa308e799", "0e18cf44bc65d1af"},
		{42, 1, "a461366b26160793", "912e2d2edf8027f9"},
		{42, 4, "6c702331f54d639c", "912e2d2edf8027f9"},
	}
	for _, pin := range pins {
		ds, err := Generate(pinConfig(t, pin.seed, pin.shards, 0))
		if err != nil {
			t.Fatal(err)
		}
		parts, dstats := partitionsDigest(t, ds.Store), dayStatsDigest(ds.DayStats)
		if parts != pin.parts || dstats != pin.dstats {
			t.Errorf("seed %d shards %d: partitions %s day stats %s, pinned %s / %s",
				pin.seed, pin.shards, parts, dstats, pin.parts, pin.dstats)
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
		parts, dstats := partitionsDigest(t, ds.Store), dayStatsDigest(ds.DayStats)
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
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total, err := trace.Count(ds.Store)
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
