package simulate

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"telcolens/internal/faultfs"
	"telcolens/internal/trace"
)

// TestPipelinedWriterFailure fails one partition write of a day, in
// Generate and in GenerateDays: a middle day, whose failure surfaces
// while the next day is being simulated, and the last day, whose
// failure surfaces in the write tail. The error must name that day, the
// writer goroutine must have exited, no later day may reach the store,
// and Config.Days and DayStats must describe exactly the days that
// landed. GenerateDays commits each day as it lands, so there the
// manifest.json on disk must describe that prefix too.
func TestPipelinedWriterFailure(t *testing.T) {
	const days = 5
	refCfg := writePathConfig(2, tempStore(t))
	refCfg.Days = days
	ref, err := Generate(refCfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, failDay := range []int{2, days - 1} {
		t.Run(fmt.Sprintf("day%d", failDay), func(t *testing.T) {
			testWriterFailure(t, days, failDay, ref)
		})
	}
}

func testWriterFailure(t *testing.T, days, failDay int, ref *Dataset) {
	// faulted returns a config writing to a fresh directory whose store
	// fails to create shard 1 of failDay.
	faulted := func(t *testing.T, cfgDays int) (Config, string) {
		dir := t.TempDir()
		ff := faultfs.NewFault(nil, faultfs.Plan{Rules: []faultfs.Rule{
			{Op: faultfs.OpOpen, Path: fmt.Sprintf("ho_day_%03d_s001.tlho", failDay)},
		}})
		store, err := trace.NewFileStoreOpts(dir, trace.FileStoreOptions{FS: ff})
		if err != nil {
			t.Fatal(err)
		}
		cfg := writePathConfig(2, store)
		cfg.Days = cfgDays
		cfg.WindowDays = days
		return cfg, dir
	}

	check := func(t *testing.T, ds *Dataset, err error, dir string, goroutines int) {
		t.Helper()
		if !errors.Is(err, faultfs.ErrInjected) || !strings.Contains(err.Error(), fmt.Sprintf("day %d:", failDay)) {
			t.Fatalf("error %v does not name day %d's injected fault", err, failDay)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the failure, %d before: the writer did not exit", runtime.NumGoroutine(), goroutines)
			}
			time.Sleep(time.Millisecond)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			var day int
			if _, err := fmt.Sscanf(e.Name(), "ho_day_%03d", &day); err == nil && day > failDay {
				t.Fatalf("%s was written after day %d failed", e.Name(), failDay)
			}
		}
		if ds.Config.Days != failDay {
			t.Fatalf("Config.Days = %d, want the %d landed days", ds.Config.Days, failDay)
		}
		if !reflect.DeepEqual(ds.DayStats, ref.DayStats[:failDay]) {
			t.Fatalf("DayStats are not the landed prefix:\n got %+v\nwant %+v", ds.DayStats, ref.DayStats[:failDay])
		}
	}

	t.Run("Generate", func(t *testing.T) {
		cfg, dir := faulted(t, days)
		goroutines := runtime.NumGoroutine()
		ds, err := Generate(cfg)
		if ds == nil {
			t.Fatalf("Generate returned no dataset with error %v", err)
		}
		check(t, ds, err, dir, goroutines)
	})
	t.Run("GenerateDays", func(t *testing.T) {
		cfg, dir := faulted(t, 1)
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.SaveManifest(dir); err != nil {
			t.Fatal(err)
		}
		goroutines := runtime.NumGoroutine()
		check(t, ds, ds.GenerateDays(days-1), dir, goroutines)
		m, err := LoadMeta(dir)
		if err != nil {
			t.Fatal(err)
		}
		if m.Config.Days != failDay || m.Config.WindowDays != days || !reflect.DeepEqual(m.DayStats, ref.DayStats[:failDay]) {
			t.Fatalf("manifest.json describes days=%d window=%d with %d day aggregates; want the %d landed days of a %d-day window",
				m.Config.Days, m.Config.WindowDays, len(m.DayStats), failDay, days)
		}
	})
}
