package simulate

import (
	"strings"
	"testing"

	"telcolens/internal/trace"
)

func appendConfig(seed uint64, days, shards int, store trace.Store) Config {
	cfg := DefaultConfig(seed)
	cfg.UEs = 800
	cfg.Days = days
	cfg.Districts = 40
	cfg.SitesTarget = 300
	cfg.Shards = shards
	cfg.Store = store
	return cfg
}

func TestGenerateDaysAppends(t *testing.T) {
	ds, err := Generate(appendConfig(7, 2, 2, tempStore(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.GenerateDays(3); err != nil {
		t.Fatal(err)
	}
	if ds.Config.Days != 5 {
		t.Fatalf("Config.Days = %d, want 5", ds.Config.Days)
	}
	if len(ds.DayStats) != 5 {
		t.Fatalf("len(DayStats) = %d, want 5", len(ds.DayStats))
	}
	for day := 2; day < 5; day++ {
		if ds.DayStats[day].Handovers == 0 {
			t.Fatalf("appended day %d produced no handovers", day)
		}
	}
	if days := storeDays(t, ds.Config.Store); days != 5 {
		t.Fatalf("store holds %d days, want 5", days)
	}
	parts, err := ds.Config.Store.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 5*2 {
		t.Fatalf("store holds %d partitions, want %d", len(parts), 5*2)
	}
	total, err := trace.Count(ds.Config.Store)
	if err != nil {
		t.Fatal(err)
	}
	if total != ds.TotalHandovers() {
		t.Fatalf("store has %d records, aggregates say %d", total, ds.TotalHandovers())
	}
	if err := ds.GenerateDays(0); err == nil {
		t.Fatal("GenerateDays(0) accepted")
	}
	// GenerateDays commits the descriptor into the campaign directory, so
	// a store that is not one is refused.
	wrapped := &Dataset{Config: ds.Config}
	wrapped.Config.Store = recordWriteStore{ds.Config.Store}
	if err := wrapped.GenerateDays(1); err == nil || !strings.Contains(err.Error(), "NewFileStore") {
		t.Fatalf("GenerateDays over %T: err = %v, want one naming NewFileStore", wrapped.Config.Store, err)
	}
}

// TestGenerateDaysDeterministic: the same campaign appended twice (in
// two fresh directories) lands byte-identical partitions — asserted via
// the store manifest's content fingerprints, which hash the stream bytes.
func TestGenerateDaysDeterministic(t *testing.T) {
	run := func() *trace.Manifest {
		fs, err := trace.NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ds, err := Generate(appendConfig(7, 2, 2, fs))
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.GenerateDays(2); err != nil {
			t.Fatal(err)
		}
		m, err := fs.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if len(a.Partitions) != len(b.Partitions) {
		t.Fatalf("partition counts differ: %d vs %d", len(a.Partitions), len(b.Partitions))
	}
	for i := range a.Partitions {
		pa, pb := a.Partitions[i], b.Partitions[i]
		if pa.Partition() != pb.Partition() || pa.Fingerprint != pb.Fingerprint || pa.Records != pb.Records {
			t.Fatalf("partition %d differs: %+v vs %+v", i, pa, pb)
		}
	}
}

// TestGenerateDaysAfterLoad: appending works on a campaign reopened from
// disk (the telcogen -append path), and GenerateDays itself commits the
// grown manifest.
func TestGenerateDaysAfterLoad(t *testing.T) {
	dir := t.TempDir()
	fs, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Generate(appendConfig(11, 2, 1, fs))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveManifest(dir); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.GenerateDays(1); err != nil {
		t.Fatal(err)
	}

	again, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if again.Config.Days != 3 {
		t.Fatalf("reloaded Days = %d, want 3", again.Config.Days)
	}
	if len(again.DayStats) != 3 {
		t.Fatalf("reloaded DayStats = %d entries, want 3", len(again.DayStats))
	}
	if days := storeDays(t, again.Config.Store); days != 3 {
		t.Fatalf("store holds %d days, want 3", days)
	}
	// The appended day must match what an identically configured campaign
	// appended in the generating process produces: same derived RNG
	// streams, same world.
	direct, err := Generate(appendConfig(11, 2, 1, tempStore(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := direct.GenerateDays(1); err != nil {
		t.Fatal(err)
	}
	if direct.DayStats[2] != again.DayStats[2] {
		t.Fatalf("appended day stats diverge: %+v vs %+v", direct.DayStats[2], again.DayStats[2])
	}
}

// storeDays counts the distinct days among a store's partitions.
func storeDays(t *testing.T, s trace.Store) int {
	t.Helper()
	parts, err := s.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	days := 0
	for i, p := range parts {
		if i == 0 || p.Day != parts[i-1].Day {
			days++
		}
	}
	return days
}
