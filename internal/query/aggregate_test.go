package query

import (
	"context"
	"maps"
	"strconv"
	"testing"

	"telcolens/internal/analysis"
	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// TestQueryAggregateMatchesPingPongCollector ties the two callers of the
// ping-pong automaton together on a generated campaign: each standard
// window's ping-pongs in the per-UE aggregate (ue=…&aggregate=1), summed
// over every UE, equal the count the pingpong experiment renders from
// its collector.
func TestQueryAggregateMatchesPingPongCollector(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	ctx := context.Background()
	fs, err := trace.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulate.DefaultConfig(1234)
	cfg.UEs, cfg.Days, cfg.Shards = 1200, 4, 2
	cfg.Store = fs
	ds, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := analysis.New(ds)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, e := range analysis.Experiments() {
		if e.ID != "pingpong" {
			continue
		}
		art, err := e.Run(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range art.Tables[0].Rows {
			n, err := strconv.ParseInt(row[2], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			want[row[0]] = n
		}
	}
	if len(want) != len(analysis.StandardPingPongWindows) || want[analysis.StandardPingPongWindows[len(want)-1].String()] == 0 {
		t.Fatalf("pingpong experiment counts %v: want every standard window, bounces in the widest", want)
	}

	eng := New(fs)
	v, err := NewView(fs)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for ue := 0; ue < ds.Population.Len(); ue++ {
		id := trace.UEID(ue)
		res, _, err := eng.Query(ctx, v, Params{UE: &id, Aggregate: true, Limit: 1})
		if err != nil {
			t.Fatal(err)
		}
		for w, n := range res.Aggregate.PingPongs {
			got[w] += n
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("per-UE aggregates sum to %v ping-pongs, the pingpong collector counts %v", got, want)
	}
}
