// Streaming ingest walkthrough: the live-feed lifecycle end to end, in
// one process. A reference campaign is batch-generated, then
// re-delivered as a live stream — per-day order shuffled, cut into
// request-sized batches, sent over HTTP with the retrying ingest
// client — into an ingest service mounted on a local listener. Sealed
// days come out as ordinary partitions, byte-identical to the batch
// generator's (the canonical seal sort makes sealed bytes a function of
// the record multiset alone), and the streamed directory loads and
// analyzes like any other campaign.
//
// The same wiring runs as daemons:
//
//	telcoserve -data ./live -addr :8080 -ingest
//	telcoload  -src ./campaign -url http://localhost:8080 -rate 50000
//
// scripts/ingest_soak.sh drives that pair through a kill -9 mid-stream
// and asserts byte-identical artifacts after WAL replay; see DESIGN.md
// §4b for the WAL, seal and backpressure contracts.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"

	"telcolens"
	"telcolens/internal/ingest"
	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

func main() {
	src, err := os.MkdirTemp("", "telcolens-stream-src-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(src)
	dst, err := os.MkdirTemp("", "telcolens-stream-dst-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dst)

	// The reference: a small sharded campaign from the batch generator.
	store, err := trace.NewFileStore(src)
	if err != nil {
		log.Fatal(err)
	}
	cfg := telcolens.DefaultConfig(42)
	cfg.UEs = 800
	cfg.Days = 2
	cfg.Shards = 2
	cfg.Store = store
	fmt.Println("Generating the 2-day reference campaign...")
	ds, err := telcolens.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.SaveManifest(src); err != nil {
		log.Fatal(err)
	}
	meta, err := simulate.LoadMeta(src)
	if err != nil {
		log.Fatal(err)
	}

	// The live target: an uninitialized ingest service behind HTTP.
	svc, err := ingest.Open(dst, ingest.Options{
		OnSeal: func(day int) { fmt.Printf("  sealed day %d\n", day) },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Declare the campaign: zero landed days, a 2-day study window.
	// telcoserve -ingest serves 503s until this descriptor arrives.
	streamMeta := *meta
	streamMeta.Config.Days = 0
	streamMeta.Config.WindowDays = cfg.Days
	streamMeta.DayStats = nil
	client := &ingest.Client{Base: ts.URL, Stream: 1}
	if err := client.Init(context.Background(), &streamMeta); err != nil {
		log.Fatal(err)
	}

	// Re-deliver each day shuffled and batched, then mark it complete;
	// the service seals whole days, in order, through the write path the
	// batch generator uses. Client.Send retries idempotently on 429/503.
	rng := rand.New(rand.NewSource(7))
	for day := 0; day < cfg.Days; day++ {
		recs := readDay(src, day)
		fmt.Printf("Streaming day %d: %d records, shuffled, 512/batch...\n", day, recs.Len())
		perm := rng.Perm(recs.Len())
		for lo := 0; lo < len(perm); lo += 512 {
			hi := min(lo+512, len(perm))
			idx := make([]int32, 0, hi-lo)
			for _, p := range perm[lo:hi] {
				idx = append(idx, int32(p))
			}
			batch := new(trace.ColumnBatch)
			batch.AppendGather(recs, idx)
			if _, err := client.Send(context.Background(), batch); err != nil {
				log.Fatal(err)
			}
		}
		if err := client.DayDone(context.Background(), day, meta.DayStats[day]); err != nil {
			log.Fatal(err)
		}
	}
	st, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Ingest stats: %d records in, %d days sealed, manifest gen %d.\n\n",
		st.IngestedRecords, st.SealedDays, st.ManifestGen)

	// The streamed directory is now an ordinary campaign: byte-identical
	// partitions, loadable and analyzable with no streaming awareness.
	for _, pat := range []string{"ho_*.tlho", "manifest.json"} {
		files, _ := filepath.Glob(filepath.Join(src, pat))
		for _, f := range files {
			a, _ := os.ReadFile(f)
			b, _ := os.ReadFile(filepath.Join(dst, filepath.Base(f)))
			if string(a) != string(b) {
				log.Fatalf("%s differs between batch and streamed campaign", filepath.Base(f))
			}
		}
	}
	fmt.Println("Every partition and the campaign manifest are byte-identical")
	fmt.Println("to the batch-generated reference. Analyzing the streamed copy:")
	streamed, err := telcolens.Load(dst)
	if err != nil {
		log.Fatal(err)
	}
	a, err := telcolens.NewAnalyzer(streamed)
	if err != nil {
		log.Fatal(err)
	}
	if err := telcolens.RunExperiment(context.Background(), "table1", a, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// readDay reads one study day's records back out of the reference
// campaign, across all shards.
func readDay(dir string, day int) *trace.ColumnBatch {
	fs, err := trace.NewFileStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	parts, err := fs.Partitions()
	if err != nil {
		log.Fatal(err)
	}
	out := new(trace.ColumnBatch)
	var cb trace.ColumnBatch
	for _, p := range parts {
		if p.Day != day {
			continue
		}
		it, err := fs.OpenPartition(p.Day, p.Shard)
		if err != nil {
			log.Fatal(err)
		}
		for {
			n, err := it.NextColumns(&cb)
			if err != nil {
				log.Fatal(err)
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
