package simulate

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"telcolens/internal/causes"
	"telcolens/internal/census"
	"telcolens/internal/corenet"
	"telcolens/internal/devices"
	"telcolens/internal/faultfs"
	"telcolens/internal/subscribers"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

// manifestName is the campaign descriptor file written next to the trace
// partitions, so a generated directory is self-describing.
const manifestName = "manifest.json"

// manifest is the on-disk JSON shape of the campaign descriptor: it
// persists everything needed to rebuild the non-trace parts of a Dataset
// (which are deterministic functions of the config) plus the
// generation-time aggregates that cannot be re-derived from the trace.
type manifest struct {
	Version  int            `json:"version"`
	Config   manifestConfig `json:"config"`
	DayStats []DayAggregate `json:"day_stats"`
}

// manifestConfig mirrors Config without the non-serializable store.
// Descriptors written before v3 became the only trace format also carry
// codec, compress and fast_compress keys; decoding ignores them.
type manifestConfig struct {
	Seed           uint64  `json:"seed"`
	Days           int     `json:"days"`
	WindowDays     int     `json:"window_days,omitempty"`
	UEs            int     `json:"ues"`
	Districts      int     `json:"districts"`
	SitesTarget    int     `json:"sites_target"`
	RareBoost      float64 `json:"rare_boost"`
	LongTailCauses int     `json:"long_tail_causes"`
	FullScaleUEs   int     `json:"full_scale_ues"`
	Shards         int     `json:"shards,omitempty"`
}

// CampaignMeta is the campaign descriptor a directory carries as
// manifest.json, decoupled from the live Dataset: the world config and
// the per-day generation aggregates. The streaming ingest path reads and
// rewrites it without ever building the world model (which Load derives
// from the config deterministically).
type CampaignMeta struct {
	// Config describes the campaign; its Store field is not persisted and
	// is ignored. Config.Days counts fully landed days; Config.WindowDays
	// (when larger) is the world-model window the campaign will grow to.
	Config Config
	// DayStats holds one generation-ground-truth aggregate per landed day.
	DayStats []DayAggregate
}

// Encode renders the descriptor in the manifest.json wire format.
func (m *CampaignMeta) Encode() ([]byte, error) {
	om := manifest{
		Version: 1,
		Config: manifestConfig{
			Seed:           m.Config.Seed,
			Days:           m.Config.Days,
			UEs:            m.Config.UEs,
			Districts:      m.Config.Districts,
			SitesTarget:    m.Config.SitesTarget,
			RareBoost:      m.Config.RareBoost,
			LongTailCauses: m.Config.LongTailCauses,
			FullScaleUEs:   m.Config.FullScaleUEs,
			Shards:         m.Config.Shards,
		},
		DayStats: m.DayStats,
	}
	if m.Config.WindowDays > m.Config.Days {
		// Only a window still growing toward its target is worth
		// persisting; a completed campaign's manifest stays identical to
		// one written by the batch generator.
		om.Config.WindowDays = m.Config.WindowDays
	}
	data, err := json.MarshalIndent(om, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("simulate: encoding manifest: %w", err)
	}
	return data, nil
}

// DecodeMeta parses manifest.json wire bytes.
func DecodeMeta(data []byte) (*CampaignMeta, error) {
	var om manifest
	if err := json.Unmarshal(data, &om); err != nil {
		return nil, fmt.Errorf("simulate: decoding manifest: %w", err)
	}
	if om.Version != 1 {
		return nil, fmt.Errorf("simulate: unsupported manifest version %d", om.Version)
	}
	return &CampaignMeta{
		Config: Config{
			Seed:           om.Config.Seed,
			Days:           om.Config.Days,
			WindowDays:     om.Config.WindowDays,
			UEs:            om.Config.UEs,
			Districts:      om.Config.Districts,
			SitesTarget:    om.Config.SitesTarget,
			RareBoost:      om.Config.RareBoost,
			LongTailCauses: om.Config.LongTailCauses,
			FullScaleUEs:   om.Config.FullScaleUEs,
			Shards:         om.Config.Shards,
		},
		DayStats: om.DayStats,
	}, nil
}

// LoadMeta reads a campaign directory's descriptor without building the
// world model.
func LoadMeta(dir string) (*CampaignMeta, error) { return LoadMetaFS(nil, dir) }

// LoadMetaFS is LoadMeta through an explicit filesystem (nil = OS),
// the seam fault-injection tests use.
func LoadMetaFS(fsys faultfs.FS, dir string) (*CampaignMeta, error) {
	data, err := faultfs.Resolve(fsys).ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("simulate: reading manifest: %w", err)
	}
	return DecodeMeta(data)
}

// Save persists the descriptor with the full atomic-publish discipline
// (stage + fsync + rename + directory fsync), so a concurrent reader —
// a serving daemon reloading the campaign while the ingest sealer
// commits a day — sees either the previous or the new descriptor,
// never a torn write, and a completed Save survives power loss. The
// descriptor rewrite is the ingest seal's commit point.
func (m *CampaignMeta) Save(dir string) error { return m.SaveFS(nil, dir) }

// SaveFS is Save through an explicit filesystem (nil = OS).
func (m *CampaignMeta) SaveFS(fsys faultfs.FS, dir string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	if err := faultfs.WriteFileAtomic(faultfs.Resolve(fsys), filepath.Join(dir, manifestName), data, 0o644); err != nil {
		return fmt.Errorf("simulate: manifest: %w", err)
	}
	return nil
}

// Meta builds the campaign descriptor for a live dataset.
func (d *Dataset) Meta() *CampaignMeta {
	return &CampaignMeta{Config: d.Config, DayStats: d.DayStats}
}

// SaveManifest writes the campaign descriptor into dir.
func (d *Dataset) SaveManifest(dir string) error {
	return d.Meta().Save(dir)
}

// Load reopens a generated campaign directory: it rebuilds the world
// deterministically from the manifest config and attaches the on-disk
// trace store without re-simulating anything.
func Load(dir string) (*Dataset, error) {
	return LoadOpts(dir, trace.FileStoreOptions{})
}

// LoadOpts is Load with explicit file-store options (the filesystem,
// read verification, block size for appended days).
func LoadOpts(dir string, opts trace.FileStoreOptions) (*Dataset, error) {
	m, err := LoadMeta(dir)
	if err != nil {
		return nil, err
	}
	ds, err := BuildWorld(m.Config)
	if err != nil {
		return nil, err
	}
	store, err := trace.NewFileStoreOpts(dir, opts)
	if err != nil {
		return nil, err
	}
	ds.Config.Store = store
	ds.DayStats = m.DayStats
	return ds, nil
}

// Reload brings a campaign opened with Load or LoadOpts up to date with
// its manifest.json in place, for long-lived readers of a growing
// campaign. Config.Days, Config.WindowDays and DayStats follow the
// manifest and the trace store is kept. The world model is rebuilt only
// when the manifest describes another world (see Config.worldKey): a
// campaign growing toward its declared window — the streaming-ingest
// shape — keeps it, while telcogen -append with no declared window
// grows the world window and rebuilds, exactly as a fresh Load would.
// rebuilt reports which happened. On any error the dataset is left
// unchanged.
//
// Reload mutates the dataset without synchronization, so it is only
// safe on the goroutine that also drives every Analyzer over it — in
// telcoserve, the watch loop. An analyzer reads Config and the world
// model during its scans and experiment runs.
func (d *Dataset) Reload() (rebuilt bool, err error) {
	fs, ok := d.Config.Store.(*trace.FileStore)
	if !ok {
		return false, fmt.Errorf("simulate: Reload needs a campaign opened with Load (store is %T)", d.Config.Store)
	}
	m, err := LoadMetaFS(fs.Options().FS, fs.Dir())
	if err != nil {
		return false, err
	}
	if m.Config.worldKey() == d.Config.worldKey() {
		d.Config.Days, d.Config.WindowDays = m.Config.Days, m.Config.WindowDays
		d.DayStats = m.DayStats
		return false, nil
	}
	next, err := BuildWorld(m.Config)
	if err != nil {
		return false, err
	}
	next.Config.Store = fs
	next.DayStats = m.DayStats
	*d = *next
	return true, nil
}

// BuildWorld rebuilds the deterministic world model (census, topology,
// devices, causes, subscribers, EPC) for a config, without simulating
// any traffic; the dataset keeps cfg, Store included. Load and the
// streaming ingest path share it.
func BuildWorld(cfg Config) (*Dataset, error) {
	censusCfg := census.DefaultGenConfig(cfg.Seed)
	censusCfg.Districts = cfg.Districts
	country, err := census.Generate(censusCfg)
	if err != nil {
		return nil, fmt.Errorf("simulate: rebuilding census: %w", err)
	}
	topoCfg := topology.DefaultGenConfig(cfg.Seed)
	topoCfg.SitesTarget = cfg.SitesTarget
	topoCfg.WindowDays = cfg.worldWindowDays()
	network, err := topology.Generate(topoCfg, country)
	if err != nil {
		return nil, fmt.Errorf("simulate: rebuilding topology: %w", err)
	}
	catalog, err := devices.GenerateCatalog(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("simulate: rebuilding devices: %w", err)
	}
	causeCat, err := causes.NewCatalog(cfg.Seed, cfg.LongTailCauses)
	if err != nil {
		return nil, fmt.Errorf("simulate: rebuilding causes: %w", err)
	}
	pop, err := subscribers.Generate(cfg.Seed, cfg.UEs, country, network, catalog)
	if err != nil {
		return nil, fmt.Errorf("simulate: rebuilding subscribers: %w", err)
	}
	epc, err := corenet.NewEPC(network, country, causeCat, corenet.Config{Seed: cfg.Seed, RareBoost: cfg.RareBoost})
	if err != nil {
		return nil, fmt.Errorf("simulate: rebuilding corenet: %w", err)
	}
	return &Dataset{
		Config:     cfg,
		Country:    country,
		Network:    network,
		Devices:    catalog,
		Causes:     causeCat,
		Population: pop,
		EPC:        epc,
	}, nil
}
