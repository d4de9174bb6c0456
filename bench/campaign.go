package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// shape sizes the one campaign C every workload runs against.
type shape struct {
	ues, days, shards int
}

// The programs under test, built once per checkout into .bench_build/bin.
var toolNames = []string{"telcogen", "telcoreport", "telcoserve"}

// buildTools compiles the real binaries from the checkout's source. Go's
// build cache makes every call after the first a sub-second no-op, so
// the binaries can never be staler than the source they are run against.
func buildTools(ctx context.Context, root, binDir string) (time.Duration, error) {
	start := time.Now()
	args := []string{"build", "-o", binDir + string(filepath.Separator)}
	for _, t := range toolNames {
		args = append(args, "./cmd/"+t)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("building %s: %v\n%s", strings.Join(toolNames, ", "), err, out)
	}
	return time.Since(start), nil
}

// generateCampaign runs telcogen with every knob but size at its default
// (codec v2, uncompressed). The program sees the seed only as its own
// -seed input, never a workload name.
func generateCampaign(ctx context.Context, binDir, dir string, seed uint64, sh shape) error {
	cmd := exec.CommandContext(ctx, filepath.Join(binDir, "telcogen"),
		"-out", dir, "-seed", strconv.FormatUint(seed, 10),
		"-ues", strconv.Itoa(sh.ues), "-days", strconv.Itoa(sh.days), "-shards", strconv.Itoa(sh.shards))
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("telcogen: %v\n%s", err, out)
	}
	return nil
}

// freshCampaign generates C into a new scratch directory and loads what
// the generator needs from it: the first step of every end-to-end set-up.
func (e *env) freshCampaign() (*campaign, error) {
	dir := e.dir("campaign")
	if err := generateCampaign(e.ctx, e.binDir, dir, e.seed, e.shape); err != nil {
		return nil, err
	}
	return loadCampaign(e.ctx, dir)
}

// campaign is what the generator knows about C: the descriptor, every
// day's records (the ingest workloads stream them), the key populations
// the read mix draws from, and the stored size.
type campaign struct {
	dir      string
	meta     *simulate.CampaignMeta
	manifest *trace.Manifest
	days     []*trace.ColumnBatch
	records  int64
	ues      []uint32 // distinct, ascending
	tacs     []uint32 // busiest first, at most topTACs
	sectors  []uint32 // busiest first, at most topSectors
}

// dayCollector gathers each day's records through trace.Scan, which
// merges partitions in canonical (day, shard) order.
type dayCollector struct{ days []*trace.ColumnBatch }

type dayShard struct {
	day  int
	cols trace.ColumnBatch
}

func (c *dayCollector) NewShardState(day, shard int) trace.ShardState { return &dayShard{day: day} }

func (s *dayShard) Observe(day int, rec *trace.Record) error {
	s.cols.AppendRecord(rec)
	return nil
}

func (s *dayShard) ObserveColumns(day int, cb *trace.ColumnBatch) error {
	s.cols.AppendColumns(cb)
	return nil
}

func (c *dayCollector) MergeShard(st trace.ShardState) error {
	s := st.(*dayShard)
	for len(c.days) <= s.day {
		c.days = append(c.days, new(trace.ColumnBatch))
	}
	c.days[s.day].AppendColumns(&s.cols)
	return nil
}

// busiest returns the keys of counts ordered by count descending, key
// ascending on ties (so the order is a function of the data alone).
func busiest(counts map[uint32]int, limit int) []uint32 {
	keys := make([]uint32, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys[:min(limit, len(keys))]
}

func loadCampaign(ctx context.Context, dir string) (*campaign, error) {
	meta, err := simulate.LoadMeta(dir)
	if err != nil {
		return nil, err
	}
	store, err := trace.NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	m, err := store.Manifest()
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("campaign %s has no usable MANIFEST", dir)
	}
	col := &dayCollector{}
	if err := trace.Scan(ctx, store, trace.ScanOptions{}, col); err != nil {
		return nil, err
	}
	c := &campaign{dir: dir, meta: meta, manifest: m, days: col.days}
	ueSeen := map[uint32]bool{}
	tacs := map[uint32]int{}
	sectors := map[uint32]int{}
	for _, d := range c.days {
		c.records += int64(d.Len())
		for i := range d.UEs {
			ueSeen[uint32(d.UEs[i])] = true
			tacs[uint32(d.TACs[i])]++
			sectors[uint32(d.Sources[i])]++
		}
	}
	if len(c.days) != meta.Config.Days || c.records != m.TotalRecords() {
		return nil, fmt.Errorf("campaign %s: read %d days / %d records, descriptor says %d / %d",
			dir, len(c.days), c.records, meta.Config.Days, m.TotalRecords())
	}
	for ue := range ueSeen {
		c.ues = append(c.ues, ue)
	}
	sort.Slice(c.ues, func(i, j int) bool { return c.ues[i] < c.ues[j] })
	c.tacs = busiest(tacs, topTACs)
	c.sectors = busiest(sectors, topSectors)
	return c, nil
}

// storedBytes sums what a campaign directory keeps on disk for its
// records: partitions, their .tlix index sidecars and the MANIFEST.
func storedBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		name := e.Name()
		if name != trace.ManifestName && !strings.HasSuffix(name, ".tlho") && !strings.HasSuffix(name, trace.IndexSuffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// streamOrder returns day's records as a probe feed would deliver them:
// each record displaced by at most reorderWindow positions (a seeded
// windowed shuffle), so the ingest side has real sorting to do at seal.
func streamOrder(day *trace.ColumnBatch, rng *rand.Rand) *trace.ColumnBatch {
	n := day.Len()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := 0; i < n-1; i++ {
		j := i + rng.Intn(min(reorderWindow, n-1-i)+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := new(trace.ColumnBatch)
	out.AppendGather(day, perm)
	return out
}

// batchOf views rows [lo, hi) of b without copying.
func batchOf(b *trace.ColumnBatch, lo, hi int) *trace.ColumnBatch {
	return &trace.ColumnBatch{
		Timestamps: b.Timestamps[lo:hi],
		UEs:        b.UEs[lo:hi],
		TACs:       b.TACs[lo:hi],
		Sources:    b.Sources[lo:hi],
		Targets:    b.Targets[lo:hi],
		Causes:     b.Causes[lo:hi],
		RATs:       b.RATs[lo:hi],
		Results:    b.Results[lo:hi],
		Durations:  b.Durations[lo:hi],
	}
}

// streamMeta is the descriptor a stream target is initialised with: C's
// world and full study window, zero landed days.
func (c *campaign) streamMeta() *simulate.CampaignMeta {
	m := *c.meta
	m.Config.Days = 0
	m.Config.WindowDays = c.meta.Config.Days
	m.DayStats = nil
	return &m
}
