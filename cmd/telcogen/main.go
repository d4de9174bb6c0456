// Command telcogen generates a synthetic countrywide handover measurement
// campaign: a four-week (configurable) trace of handover records plus the
// census open-data CSV, written to a directory that telcoanalyze and
// telcoreport can reopen.
//
// Usage:
//
//	telcogen -out ./campaign -seed 42 -ues 20000 -days 28
//	telcogen -out ./campaign -shards 8        # hash-sharded day partitions
//	telcogen -out ./campaign -codec 1         # legacy fixed-width v1 streams
//	telcogen -out ./campaign -compress        # flate-compressed v2 blocks
//	telcogen -out ./campaign -codec 3 -fastcompress  # bitpacked v3, TLZ-compressed
//	telcogen -out ./campaign -append 1        # extend the campaign by a day
//	telcogen -out ./campaign -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Generation reports a records/s summary on completion, with wall time
// split into world build / simulate / sort+encode, and the
// -cpuprofile/-memprofile flags (parity with telcoanalyze) capture pprof
// profiles of the generate → encode pipeline, so write-path perf work
// starts from a profile rather than a guess.
//
// -append extends an existing campaign day by day (the growing-feed
// scenario telcoserve watches for): the world model is rebuilt from the
// directory's manifest, the new days land as ordinary partitions, and
// the manifest is rewritten. Flags that would change the campaign's
// identity (seed, population, deployment, sharding) are refused when
// they disagree with what the manifest records.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"telcolens"
	"telcolens/internal/census"
	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

func main() {
	var (
		out        = flag.String("out", "campaign", "output directory")
		seed       = flag.Uint64("seed", 42, "deterministic campaign seed")
		ues        = flag.Int("ues", 20000, "subscriber population size")
		days       = flag.Int("days", 28, "study window length in days")
		sites      = flag.Int("sites", 2400, "cell site count")
		districts  = flag.Int("districts", 320, "census districts")
		shards     = flag.Int("shards", 1, "trace shards per day (hash-partitioned by UE)")
		rareBoost  = flag.Float64("rareboost", 1, "2G fallback probability multiplier (see DESIGN.md)")
		codec      = flag.Int("codec", 2, "trace stream codec: 1 (fixed-width records), 2 (columnar blocks) or 3 (bitpacked blocks)")
		compress   = flag.Bool("compress", false, "flate-compress v2/v3 block payloads (smaller files, slower scans)")
		fastcomp   = flag.Bool("fastcompress", false, "TLZ-compress v3 block payloads (fast decode at a lower ratio than flate)")
		appendN    = flag.Int("append", 0, "extend the existing campaign in -out by N days instead of generating")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile taken after the run to this file")
	)
	flag.Parse()

	if err := run(*out, *seed, *ues, *days, *sites, *districts, *shards, *rareBoost,
		*codec, *compress, *fastcomp, *appendN, *cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "telcogen:", err)
		os.Exit(1)
	}
}

// run wraps generation so profiles are flushed on every exit path (a
// fatal os.Exit would silently drop a pending CPU profile) — the same
// contract telcoanalyze keeps.
func run(out string, seed uint64, ues, days, sites, districts, shards int, rareBoost float64,
	codec int, compress, fastcomp bool, appendN int, cpuprofile, memprofile string) error {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if memprofile != "" {
		defer func() {
			f, err := os.Create(memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "telcogen:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize a settled heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "telcogen:", err)
			}
		}()
	}

	if appendN > 0 {
		// Only explicitly set codec flags are passed down: zero-value
		// options make LoadOpts default to the codec settings recorded in
		// the campaign manifest (and refuse explicit contradictions).
		var opts trace.FileStoreOptions
		if flagVal("codec") != nil {
			opts.Codec = trace.Codec(codec)
		}
		if flagVal("compress") != nil {
			opts.Compress = compress
		}
		if flagVal("fastcompress") != nil {
			opts.FastCompress = fastcomp
		}
		return appendDays(out, appendN, opts)
	}

	cfg := telcolens.DefaultConfig(seed)
	cfg.UEs = ues
	cfg.Days = days
	cfg.SitesTarget = sites
	cfg.Districts = districts
	cfg.Shards = shards
	cfg.RareBoost = rareBoost

	if codec != int(trace.CodecV1) && codec != int(trace.CodecV2) && codec != int(trace.CodecV3) {
		return fmt.Errorf("unknown codec %d (want 1, 2 or 3)", codec)
	}
	store, err := trace.NewFileStoreOpts(out, trace.FileStoreOptions{
		Codec:        trace.Codec(codec),
		Compress:     compress,
		FastCompress: fastcomp,
	})
	if err != nil {
		return err
	}
	cfg.Store = store

	start := time.Now()
	fmt.Printf("generating campaign: seed=%d ues=%d days=%d sites=%d districts=%d shards=%d codec=v%d\n",
		seed, ues, days, sites, districts, shards, codec)
	ds, err := telcolens.Generate(cfg)
	if err != nil {
		return err
	}
	genElapsed := time.Since(start)
	if err := ds.SaveManifest(out); err != nil {
		return err
	}

	// Census open data alongside the traces.
	censusPath := filepath.Join(out, "census.csv")
	f, err := os.Create(censusPath)
	if err != nil {
		return err
	}
	if err := census.WriteCSV(f, ds.Country); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	total, err := trace.Count(ds.Store)
	if err != nil {
		return err
	}
	fmt.Printf("done in %s: %d handover records over %d days (%d sites, %d sectors, %d UEs)\n",
		time.Since(start).Round(time.Millisecond), total, days,
		len(ds.Network.Sites), len(ds.Network.Sectors), ds.Population.Len())
	fmt.Printf("generated %.0f records/s (%s)\n", float64(total)/genElapsed.Seconds(), stageSplit(ds.Timings))
	fmt.Printf("wrote %s/, %s and %s/manifest.json\n", out, censusPath, out)
	return nil
}

// appendDays extends an existing campaign directory by n days, refusing
// to proceed when explicitly passed flags contradict the config
// fingerprint the campaign manifest records — appending days generated
// under a different seed, population or shard layout would silently
// corrupt the study.
func appendDays(dir string, n int, opts trace.FileStoreOptions) error {
	ds, err := simulate.LoadOpts(dir, opts)
	if err != nil {
		return err
	}
	checks := map[string]struct{ got, want any }{
		"seed":      {flagVal("seed"), ds.Config.Seed},
		"ues":       {flagVal("ues"), ds.Config.UEs},
		"shards":    {flagVal("shards"), max(ds.Config.Shards, 1)},
		"sites":     {flagVal("sites"), ds.Config.SitesTarget},
		"districts": {flagVal("districts"), ds.Config.Districts},
		"rareboost": {flagVal("rareboost"), ds.Config.RareBoost},
	}
	if fs, ok := ds.Store.(*trace.FileStore); ok {
		// LoadOpts resolved the campaign's recorded write options (and
		// already refused an explicit codec contradiction); an explicit
		// -compress that disagrees is refused the same way.
		checks["compress"] = struct{ got, want any }{flagVal("compress"), fs.Options().Compress}
		checks["fastcompress"] = struct{ got, want any }{flagVal("fastcompress"), fs.Options().FastCompress}
	}
	for name, c := range checks {
		if c.got != nil && fmt.Sprint(c.got) != fmt.Sprint(c.want) {
			return fmt.Errorf("-%s %v does not match the campaign manifest (%v); "+
				"appending under a different config would corrupt the study", name, c.got, c.want)
		}
	}
	if flagVal("days") != nil {
		return fmt.Errorf("-days cannot be combined with -append (the manifest records %d days; -append %d extends to %d)",
			ds.Config.Days, n, ds.Config.Days+n)
	}
	if err := discardOrphanDays(ds); err != nil {
		return err
	}

	start := time.Now()
	from := ds.Config.Days
	fmt.Printf("appending %d day(s) to campaign %s: seed=%d ues=%d shards=%d days %d -> %d\n",
		n, dir, ds.Config.Seed, ds.Config.UEs, max(ds.Config.Shards, 1), from, from+n)
	// One day per step with the campaign manifest re-saved after each, so
	// an interruption loses at most the in-flight day (which the next
	// -append discards and regenerates).
	for i := 0; i < n; i++ {
		if err := ds.GenerateDays(1); err != nil {
			return err
		}
		if err := ds.SaveManifest(dir); err != nil {
			return err
		}
	}
	var added int64
	for _, day := range ds.DayStats[from:] {
		added += day.Handovers
	}
	elapsed := time.Since(start)
	fmt.Printf("done in %s: %d handover records over days %d..%d; manifest updated\n",
		elapsed.Round(time.Millisecond), added, from, ds.Config.Days-1)
	fmt.Printf("appended %.0f records/s (%s)\n", float64(added)/elapsed.Seconds(), stageSplit(ds.Timings))
	return nil
}

// stageSplit renders where generation wall time went, so a slow run
// names its stage before anyone reaches for a profiler.
func stageSplit(t simulate.GenTimings) string {
	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	return fmt.Sprintf("world build %s, simulate %s, sort+encode %s", ms(t.World), ms(t.Simulate), ms(t.Encode))
}

// discardOrphanDays removes partitions beyond the campaign manifest's
// day count — the debris of an append that died between landing a day's
// partitions and re-saving the manifest. Generation is deterministic
// (same seed, same world, per-day RNG streams), so the removed days are
// regenerated byte-identically by the append that follows; keeping them
// would wedge it on the partition already-written guard instead.
func discardOrphanDays(ds *simulate.Dataset) error {
	fs, ok := ds.Store.(*trace.FileStore)
	if !ok {
		return nil
	}
	parts, err := fs.Partitions()
	if err != nil {
		return err
	}
	for _, p := range parts {
		if p.Day < ds.Config.Days {
			continue
		}
		fmt.Printf("discarding orphan partition day %d shard %d (interrupted append; will be regenerated)\n",
			p.Day, p.Shard)
		if err := fs.RemovePartition(p.Day, p.Shard); err != nil {
			return err
		}
	}
	return nil
}

// flagVal returns the value of a flag only if it was explicitly set.
func flagVal(name string) any {
	var out any
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			out = f.Value.(flag.Getter).Get()
		}
	})
	return out
}
