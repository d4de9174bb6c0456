package telcolens

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"telcolens/internal/query"
	"telcolens/internal/trace"
)

var (
	facadeOnce sync.Once
	facadeDS   *Dataset
	facadeErr  error
)

// fixtureDir holds the campaigns of the package's shared fixtures (the
// facade dataset and the root benchmarks') for the whole run; TestMain
// removes it afterwards.
var fixtureDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "telcolens-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fixtureDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// generateShared generates cfg into the named campaign directory under
// fixtureDir, for fixtures that outlive the test that builds them.
func generateShared(name string, cfg Config) (*Dataset, error) {
	store, err := NewFileStore(filepath.Join(fixtureDir, name))
	if err != nil {
		return nil, err
	}
	cfg.Store = store
	return Generate(cfg)
}

func facadeDataset(t *testing.T) *Dataset {
	facadeOnce.Do(func() {
		cfg := DefaultConfig(5)
		cfg.UEs = 1200
		cfg.Days = 4
		facadeDS, facadeErr = generateShared("facade", cfg)
	})
	if facadeErr != nil {
		t.Fatal(facadeErr)
	}
	return facadeDS
}

func TestFacadeGenerateAnalyze(t *testing.T) {
	ds := facadeDataset(t)
	if ds.TotalHandovers() == 0 {
		t.Fatal("no handovers")
	}
	a, err := NewAnalyzer(ds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunExperiment(context.Background(), "table2", a, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TABLE2") {
		t.Fatal("experiment output malformed")
	}
	if err := RunExperiment(context.Background(), "definitely-not-real", a, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFacadeExperimentInventory(t *testing.T) {
	exps := Experiments()
	ids := ExperimentIDs()
	if len(exps) != len(ids) {
		t.Fatal("inventory mismatch")
	}
	// Every paper artifact present.
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"table8", "table9", "fig3a", "fig3b", "fig4a", "fig4b", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14a",
		"fig14b", "fig15", "fig16", "fig17", "fig18", "anova",
	}
	have := make(map[string]bool)
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
}

func TestFacadeFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(9)
	cfg.UEs = 500
	cfg.Days = 2
	cfg.Store = store
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveManifest(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}

	// The generating process and a reload of its directory render the
	// same report, byte for byte.
	reloaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	report := func(ds *Dataset) []byte {
		t.Helper()
		a, err := NewAnalyzer(ds)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := RunAll(context.Background(), a, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	in, re := report(ds), report(reloaded)
	if !strings.Contains(string(in), "FIG8") {
		t.Fatal("report malformed")
	}
	if !bytes.Equal(in, re) {
		t.Fatalf("in-process report (%d bytes) differs from the reloaded one (%d bytes)", len(in), len(re))
	}
}

func TestFacadeLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("empty dir loaded")
	}
}

func TestFacadeProfiles(t *testing.T) {
	ds := facadeDataset(t)
	a, err := NewAnalyzer(ds)
	if err != nil {
		t.Fatal(err)
	}
	p, err := a.DistrictProfile(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name == "" || p.Population <= 0 {
		t.Fatalf("profile malformed: %+v", p)
	}
	if _, err := a.DistrictProfile(context.Background(), -1); err == nil {
		t.Fatal("invalid district accepted")
	}
	ranked, err := a.RankLegacyDependence(context.Background(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no ranked districts")
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].VerticalPct > ranked[i-1].VerticalPct {
			t.Fatal("ranking not descending")
		}
	}
}

// rowCounter is a trace collector that counts scanned rows.
type rowCounter struct{ rows atomic.Int64 }

type rowCounterShard struct{ c *rowCounter }

func (c *rowCounter) NewShardState(day, shard int) trace.ShardState { return rowCounterShard{c} }
func (c *rowCounter) MergeShard(trace.ShardState) error             { return nil }
func (s rowCounterShard) ObserveColumns(day int, cb *trace.ColumnBatch) error {
	s.c.rows.Add(int64(cb.Len()))
	return nil
}

// TestUncommittedPartitionIsInvisible: a .tlho file the MANIFEST does not
// list is not part of the store. Scan, Count, a query view and an
// analyzer never see it, and Verify reports it as an orphan.
func TestUncommittedPartitionIsInvisible(t *testing.T) {
	generate := func(dir string, days int) *Dataset {
		t.Helper()
		store, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(9)
		cfg.UEs = 300
		cfg.Days = days
		cfg.Store = store
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	dir, longer := t.TempDir(), t.TempDir()
	generate(dir, 2)
	full := generate(longer, 3)
	store, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := trace.Count(store)
	if err != nil {
		t.Fatal(err)
	}
	// A three-day world over the two committed days, so day 2 lies inside
	// the analyzer's window.
	view := *full
	view.Config.Store = store
	render := func() string {
		t.Helper()
		a, err := NewAnalyzer(&view)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := RunExperiment(context.Background(), "table2", a, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render()

	data, err := os.ReadFile(filepath.Join(longer, "ho_day_002.tlho"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ho_day_002.tlho"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	if n, err := trace.Count(store); err != nil || n != committed {
		t.Fatalf("Count = %d, %v; want the committed %d", n, err, committed)
	}
	var col rowCounter
	if err := trace.Scan(context.Background(), store, trace.ScanOptions{}, &col); err != nil || col.rows.Load() != committed {
		t.Fatalf("Scan saw %d rows (%v), want %d", col.rows.Load(), err, committed)
	}
	qv, err := query.NewView(store)
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range qv.Partitions {
		if pi.Day == 2 {
			t.Fatalf("query view holds the uncommitted partition: %+v", qv.Partitions)
		}
	}
	if got := render(); got != want {
		t.Fatalf("analyzer output changed with an uncommitted partition:\n%s\nwant:\n%s", got, want)
	}
	rep, err := trace.Verify(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Orphans) != 1 || rep.Orphans[0] != (trace.Partition{Day: 2}) {
		t.Fatalf("verify = %+v, want one orphan (day 2)", rep)
	}
}
