package ingest

import (
	"math/rand"
	"testing"

	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// dayRecords reads every record of one study day back out of a campaign
// directory, across all shards.
func dayRecords(t *testing.T, dir string, day int) *trace.ColumnBatch {
	t.Helper()
	fs := mustStore(t, dir)
	parts, err := fs.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	out := new(trace.ColumnBatch)
	var cb trace.ColumnBatch
	for _, p := range parts {
		if p.Day != day {
			continue
		}
		it, err := fs.OpenPartition(p.Day, p.Shard)
		if err != nil {
			t.Fatal(err)
		}
		for {
			n, err := it.NextColumns(&cb)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			out.AppendColumns(&cb)
		}
		it.Close()
	}
	return out
}

// TestStreamedCampaignMatchesBatch is the acceptance property of the
// streaming subsystem: the same record multiset, delivered live —
// shuffled within days, batches interleaved across days, with a process
// restart in the middle of the stream — seals into partitions and a
// campaign descriptor byte-identical to the batch simulate path's. Every
// analysis artifact is a function of those bytes, so artifact identity
// follows.
func TestStreamedCampaignMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	// Reference: a small sharded campaign from the batch generator.
	src := t.TempDir()
	fs, err := trace.NewFileStore(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulate.DefaultConfig(42)
	cfg.UEs = 600
	cfg.Days = 3
	cfg.Shards = 2
	cfg.Store = fs
	ds, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveManifest(src); err != nil {
		t.Fatal(err)
	}
	meta, err := simulate.LoadMeta(src)
	if err != nil {
		t.Fatal(err)
	}

	// Re-deliver the campaign as a live stream: per-day record order
	// shuffled, fixed-size batches, days interleaved round-robin.
	rng := rand.New(rand.NewSource(7))
	const batchSize = 193
	batches := make([][]*trace.ColumnBatch, cfg.Days)
	for day := 0; day < cfg.Days; day++ {
		recs := dayRecords(t, src, day)
		perm := rng.Perm(recs.Len())
		for lo := 0; lo < len(perm); lo += batchSize {
			hi := min(lo+batchSize, len(perm))
			idx := make([]int32, 0, hi-lo)
			for _, p := range perm[lo:hi] {
				idx = append(idx, int32(p))
			}
			b := new(trace.ColumnBatch)
			b.AppendGather(recs, idx)
			batches[day] = append(batches[day], b)
		}
	}

	dst := t.TempDir()
	svc := mustOpen(t, dst, Options{})
	streamMeta := *meta
	streamMeta.Config.Days = 0
	streamMeta.Config.WindowDays = cfg.Days
	streamMeta.DayStats = nil
	if err := svc.Init(&streamMeta); err != nil {
		t.Fatal(err)
	}

	// Interleave all days' batches; restart the service halfway through.
	type send struct {
		day   int
		seq   uint64
		batch *trace.ColumnBatch
	}
	var plan []send
	for i := 0; ; i++ {
		any := false
		for day := 0; day < cfg.Days; day++ {
			if i < len(batches[day]) {
				plan = append(plan, send{day: day, seq: uint64(i + 1), batch: batches[day][i]})
				any = true
			}
		}
		if !any {
			break
		}
	}
	half := len(plan) / 2
	for _, sd := range plan[:half] {
		if _, err := svc.Append(uint32(sd.day), sd.seq, sd.batch); err != nil {
			t.Fatal(err)
		}
	}
	// Process restart mid-stream: acknowledged records must survive, and
	// one retried batch must deduplicate.
	svc.Close()
	svc = mustOpen(t, dst, Options{})
	if half > 0 {
		retry := plan[half-1]
		res, err := svc.Append(uint32(retry.day), retry.seq, retry.batch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != 0 || res.Duplicate != retry.batch.Len() {
			t.Fatalf("post-restart retry ack = %+v, want all duplicates", res)
		}
	}
	for _, sd := range plan[half:] {
		if _, err := svc.Append(uint32(sd.day), sd.seq, sd.batch); err != nil {
			t.Fatal(err)
		}
	}
	for day := 0; day < cfg.Days; day++ {
		if err := svc.DayComplete(day, meta.DayStats[day]); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.SealedDays != cfg.Days || st.MemtableRecords != 0 || len(st.PendingDays) != 0 {
		t.Fatalf("post-stream stats = %+v", st)
	}

	compareCampaignDirs(t, src, dst)

	// The sealed directory must load as an ordinary campaign.
	if _, err := simulate.Load(dst); err != nil {
		t.Fatal(err)
	}
}
