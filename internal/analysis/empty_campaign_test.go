package analysis

import (
	"context"
	"testing"

	"telcolens/internal/simulate"
)

// A streaming-ingest serving target starts life as a zero-day campaign:
// the world model is built for the declared study window, but no
// partitions exist yet. telcoserve renders the full experiment registry
// the moment the descriptor lands, so every experiment must fail
// gracefully (or produce a degenerate artifact) on the empty trace —
// never panic.
func TestExperimentsOnEmptyCampaign(t *testing.T) {
	cfg := simulate.DefaultConfig(3)
	cfg.UEs = 300
	cfg.Days = 0
	cfg.WindowDays = 5
	ds, err := simulate.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds.Config.Store = tempStore(t)
	a, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := a.Scan(ctx); err != nil {
		t.Logf("warm scan: %v", err)
	}
	for _, e := range Experiments() {
		if _, err := e.Run(ctx, a); err != nil {
			t.Logf("%s: %v (graceful)", e.ID, err)
		}
	}
}

// A window with an open start clamps to no day at all on a zero-day
// campaign; the scan must still succeed, as it does without a window,
// rather than hand the trace an inverted range.
func TestWindowedScanOnEmptyCampaign(t *testing.T) {
	cfg := simulate.DefaultConfig(3)
	cfg.UEs = 300
	cfg.Days = 0
	cfg.WindowDays = 5
	ds, err := simulate.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds.Config.Store = tempStore(t)
	a, err := New(ds, WithWindow(-1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Scan(context.Background()); err != nil {
		t.Fatalf("windowed scan of a zero-day campaign: %v", err)
	}
}
