// Ad-hoc query walkthrough: generate a campaign, pick one subscriber,
// and serve their record slice two ways — straight through the query
// engine, and over HTTP the way telcoserve mounts it — watching the
// index do its work in the prune counters.
//
// Every partition the generator writes ends with an index footer:
// partition- and block-level bloom filters over UE/TAC/sector plus
// per-block time extents. A single-UE query then prunes in three stages
// (manifest zone maps + UE-hash sharding, partition blooms, per-block
// allow-lists) and decodes a handful of blocks where a scan would decode
// a campaign; the metrics on every result show exactly how many. Forcing NoIndex runs
// the same query as a full scan-and-filter — byte-identical rows, just
// slower — which is also the cross-check CI runs (TestQueryMatchesScan).
//
// The same endpoint runs as a daemon:
//
//	telcoserve -data ./campaign -addr :8480
//	curl 'http://localhost:8480/query?ue=1234&agg=1'
//	curl 'http://localhost:8480/stats'   # cumulative prune counters
//
// See DESIGN.md §6 for the index format and the snapshot-isolation and
// cache-invalidation contracts.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"

	"telcolens"
	"telcolens/internal/trace"
)

func main() {
	dir, err := os.MkdirTemp("", "telcolens-query-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A small sharded campaign on disk; the stream writer ends every
	// partition with its index footer as a side effect. Small
	// blocks (512 records vs the 4096 default) give the block-level
	// pruning something to bite on at this toy scale.
	store, err := trace.NewFileStoreOpts(dir, trace.FileStoreOptions{BlockRecords: 512})
	if err != nil {
		log.Fatal(err)
	}
	cfg := telcolens.DefaultConfig(42)
	cfg.UEs = 2000
	cfg.Days = 7
	cfg.Shards = 4
	cfg.Store = store
	fmt.Println("Generating a 7-day campaign (2000 UEs, 4 shards/day)...")
	if _, err := telcolens.Generate(cfg); err != nil {
		log.Fatal(err)
	}

	// Pin the current manifest generation. Queries against this view are
	// snapshot-isolated: partitions are write-once, so even if a live
	// ingester kept appending days, this view would keep answering from
	// exactly the generation it captured.
	eng := telcolens.NewQueryEngine(store)
	view, err := telcolens.NewQueryView(store)
	if err != nil {
		log.Fatal(err)
	}

	// Pick a subscriber that actually handed over.
	it, err := store.OpenPartition(0, 0)
	if err != nil {
		log.Fatal(err)
	}
	var first trace.ColumnBatch
	if n, err := it.NextColumns(&first); err != nil || n == 0 {
		log.Fatal("campaign has no records")
	}
	it.Close()
	ue := first.UEs[0]

	// One subscriber's full week, with the per-slice aggregate.
	ctx := context.Background()
	res, _, err := eng.Query(ctx, view, telcolens.QueryParams{UE: &ue, Aggregate: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nUE %d: %d handover records across the week. First three:\n", ue, len(res.Rows))
	for _, r := range res.Rows[:min(3, len(res.Rows))] {
		fmt.Printf("  ts=%d  %s -> %s  sector %d -> %d  (%s)\n",
			r.Timestamp, r.SourceRAT, r.TargetRAT, r.Source, r.Target, r.Result)
	}
	a := res.Aggregate
	fmt.Printf("Aggregate: %d HOs (%d horizontal, %d vertical), %d failures, ping-pongs %v\n",
		a.Handovers, a.Horizontal, a.Vertical, a.Failures, a.PingPongs)

	// The efficiency story is in the metrics: the indexed execution
	// decodes a few blocks; the forced scan decodes the campaign.
	scan := telcolens.QueryParams{UE: &ue, Aggregate: true, NoIndex: true}
	full, _, err := eng.Query(ctx, view, scan)
	if err != nil {
		log.Fatal(err)
	}
	im, sm := res.Metrics, full.Metrics
	fmt.Printf("\n             %12s  %12s\n", "indexed", "full scan")
	fmt.Printf("partitions   %6d/%-5d  %6d/%-5d   (scanned/considered)\n",
		im.PartitionsScanned, im.PartitionsConsidered, sm.PartitionsScanned, sm.PartitionsConsidered)
	fmt.Printf("blocks       %12d  %12d   (decoded)\n", im.BlocksDecoded, sm.BlocksDecoded)
	fmt.Printf("rows         %12d  %12d   (scanned for %d matches)\n",
		im.RowsScanned, sm.RowsScanned, len(res.Rows))

	// Same rows either way — the index only skips work, never answers.
	ij, _ := json.Marshal(res.Rows)
	sj, _ := json.Marshal(full.Rows)
	if string(ij) != string(sj) {
		log.Fatal("indexed and scan results differ")
	}
	fmt.Println("\nIndexed rows are byte-identical to the scan fallback.")

	// Where the blooms really earn their bytes: a rare device model.
	// TAC is not the sharding key, so stage-1 pruning can't help — but
	// the handful of subscribers carrying a rare model hash to a few
	// shards and cluster in a few blocks, and the UE/TAC filters skip
	// everything else. Find the rarest TAC in one partition and slice it.
	rare := rareTAC(store)
	p := telcolens.QueryParams{TAC: &rare, Limit: 100000}
	idxRes, _, err := eng.Query(ctx, view, p)
	if err != nil {
		log.Fatal(err)
	}
	p.NoIndex = true
	scanRes, _, err := eng.Query(ctx, view, p)
	if err != nil {
		log.Fatal(err)
	}
	im, sm = idxRes.Metrics, scanRes.Metrics
	fmt.Printf("\nRare device TAC %d (%d records campaign-wide):\n", rare, len(idxRes.Rows))
	fmt.Printf("  indexed:   %d partitions scanned, %d blocks decoded, %d rows touched\n",
		im.PartitionsScanned, im.BlocksDecoded, im.RowsScanned)
	fmt.Printf("  full scan: %d partitions scanned, %d blocks decoded, %d rows touched\n",
		sm.PartitionsScanned, sm.BlocksDecoded, sm.RowsScanned)

	// The HTTP shape telcoserve serves: mount a handler over the same
	// engine and curl it. X-Cache flips to "hit" on the repeat because
	// results are memoized per (query, manifest generation).
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		var p telcolens.QueryParams
		uq := r.URL.Query()
		if s := uq.Get("ue"); s != "" {
			var id uint32
			fmt.Sscanf(s, "%d", &id)
			u := trace.UEID(id)
			p.UE = &u
		}
		out, hit, err := eng.Query(r.Context(), view, p)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if hit {
			w.Header().Set("X-Cache", "hit")
		} else {
			w.Header().Set("X-Cache", "miss")
		}
		json.NewEncoder(w).Encode(out)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/query?ue=%d", ts.URL, ue))
		if err != nil {
			log.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Printf("GET /query?ue=%d  ->  %d bytes, X-Cache: %s\n",
			ue, len(body), resp.Header.Get("X-Cache"))
	}
	cs := eng.CacheStats()
	fmt.Printf("Engine cache: %d hits, %d misses, %d entries.\n", cs.Hits, cs.Misses, cs.Entries)
}

// rareTAC returns the least frequent device TAC observed in partition
// (0, 0) — a stand-in for "a device model worth drilling into".
func rareTAC(store telcolens.Store) uint32 {
	it, err := store.OpenPartition(0, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer it.Close()
	counts := make(map[uint32]int)
	var cb trace.ColumnBatch
	for {
		n, err := it.NextColumns(&cb)
		if err != nil {
			log.Fatal(err)
		}
		if n == 0 {
			break
		}
		for _, tac := range cb.TACs {
			counts[uint32(tac)]++
		}
	}
	var rare uint32
	best := 1 << 30
	for tac, n := range counts {
		if n < best || (n == best && tac < rare) {
			rare, best = tac, n
		}
	}
	return rare
}
