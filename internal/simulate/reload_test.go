package simulate

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"telcolens/internal/trace"
)

// reloadCampaign generates a small on-disk campaign (windowDays 0 = no
// declared window) and saves its manifest.
func reloadCampaign(t *testing.T, dir string, days, windowDays int) {
	t.Helper()
	fs, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := appendConfig(5, days, 2, fs)
	cfg.UEs = 300
	cfg.WindowDays = windowDays
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveManifest(dir); err != nil {
		t.Fatal(err)
	}
}

// appendOneDay lands one more day the way telcogen -append does, through
// a dataset of its own.
func appendOneDay(t *testing.T, dir string) {
	t.Helper()
	ds, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.GenerateDays(1); err != nil {
		t.Fatal(err)
	}
}

// worldOf is the part of a dataset a world rebuild replaces.
func worldOf(d *Dataset) []any {
	return []any{d.Country, d.Network, d.Devices, d.Causes, d.Population, d.EPC}
}

// mustEqualFreshLoad asserts the reloaded dataset equals what a cold
// Load of the same directory builds.
func mustEqualFreshLoad(t *testing.T, d *Dataset, dir string) {
	t.Helper()
	fresh, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, fresh) {
		t.Fatalf("reloaded dataset differs from a fresh Load (days %d vs %d, window %d vs %d)",
			d.Config.Days, fresh.Config.Days, d.Config.WindowDays, fresh.Config.WindowDays)
	}
}

func TestReloadKeepsWorld(t *testing.T) {
	t.Run("same world key", func(t *testing.T) {
		dir := t.TempDir()
		reloadCampaign(t, dir, 2, 0)
		d, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		world, store := worldOf(d), d.Config.Store
		rebuilt, err := d.Reload()
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt {
			t.Fatal("unchanged campaign rebuilt its world")
		}
		if d.Config.Store != store {
			t.Fatal("unchanged campaign replaced its store")
		}
		for i, p := range worldOf(d) {
			if p != world[i] {
				t.Fatalf("world component %d replaced", i)
			}
		}
		mustEqualFreshLoad(t, d, dir)
	})

	t.Run("declared window growth", func(t *testing.T) {
		dir := t.TempDir()
		reloadCampaign(t, dir, 2, 4)
		d, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		world := worldOf(d)
		appendOneDay(t, dir)
		rebuilt, err := d.Reload()
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt {
			t.Fatal("growth inside the declared window rebuilt the world")
		}
		for i, p := range worldOf(d) {
			if p != world[i] {
				t.Fatalf("world component %d replaced", i)
			}
		}
		if d.Config.Days != 3 || len(d.DayStats) != 3 || d.Config.WindowDays != 4 {
			t.Fatalf("reloaded days %d, day stats %d, window %d; want 3, 3, 4",
				d.Config.Days, len(d.DayStats), d.Config.WindowDays)
		}
		mustEqualFreshLoad(t, d, dir)
	})

	t.Run("append without declared window", func(t *testing.T) {
		dir := t.TempDir()
		reloadCampaign(t, dir, 2, 0)
		d, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		network := d.Network
		appendOneDay(t, dir)
		rebuilt, err := d.Reload()
		if err != nil {
			t.Fatal(err)
		}
		if !rebuilt || d.Network == network {
			t.Fatal("a grown world window kept the old world")
		}
		if d.Config.Days != 3 {
			t.Fatalf("reloaded days %d, want 3", d.Config.Days)
		}
		mustEqualFreshLoad(t, d, dir)
	})

	t.Run("contradicting codec", func(t *testing.T) {
		// Descriptors written before v3 became the only trace format carry
		// codec and compression keys. Whatever they say, Reload keeps the
		// world and the store, and a re-save drops them.
		dir := t.TempDir()
		reloadCampaign(t, dir, 1, 0)
		d, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		store := d.Config.Store
		path := filepath.Join(dir, manifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		old := strings.Replace(string(data), `"config": {`, `"config": {"codec": 1, "compress": true, "fast_compress": true,`, 1)
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		rebuilt, err := d.Reload()
		if err != nil || rebuilt || d.Config.Store != store {
			t.Fatalf("Reload over a descriptor with codec keys: rebuilt %v, store kept %v, err %v",
				rebuilt, d.Config.Store == store, err)
		}
		mustEqualFreshLoad(t, d, dir)
		if err := d.SaveManifest(dir); err != nil {
			t.Fatal(err)
		}
		if data, err := os.ReadFile(path); err != nil || strings.Contains(string(data), "compress") {
			t.Fatalf("re-saved descriptor keeps the codec keys: %s (%v)", data, err)
		}
	})
}
