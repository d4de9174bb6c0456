// Command telcoload replays a generated campaign directory against a
// streaming ingest endpoint as a live measurement feed: the target is
// initialized with the campaign's descriptor, records are re-delivered
// in batches of 512 over parallel client streams at a configurable rate
// (with ±20% pacing jitter), shuffled inside a 1024-record reorder
// window (late arrivals), and each study day is closed with a
// day-completion marker carrying the campaign's generation ground truth
// — after which the ingest side seals the day into ordinary partitions.
// Each batch goes over the wire in the codec the partitions use: a
// (stream, seq) key and one block frame (ingest.ContentTypeBinary).
//
// Usage:
//
//	telcogen -out ./campaign -ues 3000 -days 7    # the source material
//	telcoserve -data ./live -ingest :8080 ...     # the receiving daemon
//	telcoload -src ./campaign -url http://127.0.0.1:8080
//	telcoload -src ./campaign -url ... -rate 50000 -streams 8
//
// With -chaos-faults the replay routes through an in-process netchaos
// proxy (internal/netchaos) that injects wire-level faults — resets,
// torn writes, latency, blackholes, bandwidth caps — between the
// clients and the daemon, turning any replay into a network-failure
// drill:
//
//	telcoload -src ./campaign -url http://127.0.0.1:8080 \
//	    -chaos-faults 'reset:up:after=20:every=97,latency:up:every=5:delay=2ms' \
//	    -chaos-seed 7 -retry-for 5m
//
// Because the ingest seal order is canonical, a replay at any rate, in
// any arrival order — and through any chaos plan the retry budget
// survives — lands partitions byte-identical to the source campaign's;
// `diff -r` of the two directories (minus the serving MANIFEST) is the
// end-to-end correctness check, and the soak CI job kills the daemon
// mid-replay to prove the crash-recovery half of that contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"time"

	"telcolens/internal/ingest"
	"telcolens/internal/netchaos"
	"telcolens/internal/simulate"
	"telcolens/internal/trace"
)

// loadConfig is the parsed flag set: what to replay, where, how fast,
// how resilient the clients are, and what the wire does to them.
type loadConfig struct {
	src, url string
	rate     float64
	streams  int

	retryFor   time.Duration
	maxBackoff time.Duration

	chaosFaults string
	chaosSeed   int64
}

// The replay's shape: records per POST, the reorder window in records,
// pacing jitter as a fraction of the inter-batch interval, and the seed
// of the reorder shuffle and the per-stream jitter.
const (
	batchSize     = 512
	reorderWindow = 1024
	pacingJitter  = 0.2
	shuffleSeed   = 1
)

func main() {
	var cfg loadConfig
	flag.StringVar(&cfg.src, "src", "", "source campaign directory (required)")
	flag.StringVar(&cfg.url, "url", "", "ingest endpoint base URL (required), e.g. http://127.0.0.1:8080")
	flag.Float64Var(&cfg.rate, "rate", 0, "target records/second (0 = as fast as the endpoint accepts)")
	flag.IntVar(&cfg.streams, "streams", 4, "parallel client streams")
	flag.DurationVar(&cfg.retryFor, "retry-for", 2*time.Minute, "per-send retry budget before a stream gives up")
	flag.DurationVar(&cfg.maxBackoff, "max-backoff", 0, "cap on any retry wait, including server Retry-After (0 = client default)")
	flag.StringVar(&cfg.chaosFaults, "chaos-faults", "", "netchaos fault plan, e.g. 'reset:up:after=10:every=50' (empty = no proxy; see internal/netchaos)")
	flag.Int64Var(&cfg.chaosSeed, "chaos-seed", 1, "jitter seed for the chaos proxy (deterministic per seed)")
	flag.Parse()
	if cfg.src == "" || cfg.url == "" {
		flag.Usage()
		os.Exit(2)
	}
	// An interrupt cancels in-flight sends and aborts backoff waits
	// immediately; the replay then exits non-zero with what failed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "telcoload:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg loadConfig) error {
	meta, err := simulate.LoadMeta(cfg.src)
	if err != nil {
		return err
	}
	store, err := trace.NewFileStore(cfg.src)
	if err != nil {
		return err
	}
	days := meta.Config.Days
	streams := cfg.streams
	if streams <= 0 {
		streams = 1
	}

	url := cfg.url
	var proxy *netchaos.Proxy
	if cfg.chaosFaults != "" {
		rules, err := netchaos.ParseRules(cfg.chaosFaults)
		if err != nil {
			return err
		}
		target := strings.TrimPrefix(cfg.url, "http://")
		if target == cfg.url {
			return fmt.Errorf("-chaos-faults needs a plain http:// -url (got %q)", cfg.url)
		}
		proxy, err = netchaos.New(target, netchaos.Options{Rules: rules, Seed: cfg.chaosSeed})
		if err != nil {
			return err
		}
		defer proxy.Close()
		url = proxy.URL()
		fmt.Printf("telcoload: chaos proxy %s -> %s (%d rules, seed %d)\n",
			proxy.Addr(), target, len(rules), cfg.chaosSeed)
	}

	clients := make([]*ingest.Client, streams)
	for i := range clients {
		clients[i] = &ingest.Client{
			Base:       url,
			Stream:     uint32(i + 1),
			RetryFor:   cfg.retryFor,
			MaxBackoff: cfg.maxBackoff,
		}
	}
	// The resilience summary prints even when a stream gives up — on a
	// chaos run the retry/breaker counters ARE the result.
	defer printResilience(clients, proxy)
	// The stream target declares the full study window up front (the
	// world-model deployment timeline depends on it) but starts with zero
	// landed days. Init is idempotent on a target whose config agrees, so
	// a resumed replay re-checks it rather than skipping it.
	streamMeta := *meta
	streamMeta.Config.Days = 0
	streamMeta.Config.WindowDays = meta.Config.Days
	streamMeta.DayStats = nil
	if err := clients[0].Init(ctx, &streamMeta); err != nil {
		return fmt.Errorf("initializing ingest target: %w", err)
	}

	rng := rand.New(rand.NewSource(shuffleSeed))
	var interval time.Duration
	if cfg.rate > 0 {
		interval = time.Duration(float64(batchSize) / cfg.rate * float64(time.Second))
	}
	start := time.Now()
	var total int64
	for day := 0; day < days; day++ {
		cols, err := readDay(store, day)
		if err != nil {
			return err
		}
		shuffleWindow(cols, rng)
		if err := sendDay(ctx, clients, cols, interval, rng); err != nil {
			return fmt.Errorf("day %d: %w", day, err)
		}
		if err := clients[0].DayDone(ctx, day, meta.DayStats[day]); err != nil {
			return fmt.Errorf("closing day %d: %w", day, err)
		}
		total += int64(cols.Len())
		fmt.Printf("telcoload: day %d streamed (%d records, %.0f rec/s cumulative)\n",
			day, cols.Len(), float64(total)/time.Since(start).Seconds())
	}
	st, err := clients[0].Stats()
	if err != nil {
		return err
	}
	fmt.Printf("telcoload: done: %d records in %.1fs; server sealed %d days, manifest gen %d\n",
		total, time.Since(start).Seconds(), st.SealedDays, st.ManifestGen)
	if st.SealedDays < days {
		return fmt.Errorf("server sealed %d of %d days", st.SealedDays, days)
	}
	return nil
}

// printResilience summarizes what the wire did to the replay: the
// clients' aggregate retry/breaker counters and, when a chaos proxy was
// in the path, the faults it actually injected.
func printResilience(clients []*ingest.Client, proxy *netchaos.Proxy) {
	var m ingest.ClientMetrics
	for _, cl := range clients {
		cm := cl.Metrics()
		m.Sends += cm.Sends
		m.Retries += cm.Retries
		m.TransportFailures += cm.TransportFailures
		m.BreakerOpens += cm.BreakerOpens
		m.ShortCircuits += cm.ShortCircuits
		m.RetryAfterHonored += cm.RetryAfterHonored
	}
	fmt.Printf("telcoload: client: %d sends, %d retries, %d transport failures, %d breaker opens, %d short circuits, %d retry-after honored\n",
		m.Sends, m.Retries, m.TransportFailures, m.BreakerOpens, m.ShortCircuits, m.RetryAfterHonored)
	if proxy == nil {
		return
	}
	ps := proxy.Stats()
	fmt.Printf("telcoload: chaos: %d conns, %d resets, %d torn, %d blackholed, %d delayed, %d trickled, %d throttled, %d dial errors, %d B up / %d B down\n",
		ps.Accepted, ps.Resets, ps.Torn, ps.Blackholed, ps.Delayed, ps.Trickled, ps.Throttled, ps.DialErrors, ps.BytesUp, ps.BytesDown)
}

// readDay collects every record of one study day across all shards.
func readDay(store *trace.FileStore, day int) (*trace.ColumnBatch, error) {
	parts, err := store.Partitions()
	if err != nil {
		return nil, err
	}
	cols := new(trace.ColumnBatch)
	var cb trace.ColumnBatch
	for _, p := range parts {
		if p.Day != day {
			continue
		}
		it, err := store.OpenPartition(p.Day, p.Shard)
		if err != nil {
			return nil, err
		}
		for {
			n, err := it.NextColumns(&cb)
			if err != nil {
				it.Close()
				return nil, err
			}
			if n == 0 {
				break
			}
			cols.AppendColumns(&cb)
		}
		if err := it.Close(); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// shuffleWindow models bounded out-of-order delivery: each record may be
// displaced by up to reorderWindow positions (a windowed Fisher-Yates),
// like events reaching a collector over links with unequal latency.
func shuffleWindow(cols *trace.ColumnBatch, rng *rand.Rand) {
	n := cols.Len()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := 0; i < n-1; i++ {
		hi := min(i+reorderWindow, n-1)
		j := i + rng.Intn(hi-i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := new(trace.ColumnBatch)
	out.AppendGather(cols, perm)
	*cols = *out
}

// streamFailure is one client stream that gave up: its retry budget ran
// out (or the context was canceled) on some batch.
type streamFailure struct {
	stream uint32
	err    error
}

// sendDay fans the day's records out over the client streams in
// round-robin batches, pacing each stream to the shared rate target.
// When streams exhaust their retry budgets the error summarizes every
// failed stream, not just the first — the operator sees at a glance
// whether one stream hit a bad path or the endpoint went down for all.
func sendDay(ctx context.Context, clients []*ingest.Client, cols *trace.ColumnBatch, interval time.Duration, rng *rand.Rand) error {
	type job struct{ lo, hi int }
	// Fully buffered so the producer never blocks even if every worker
	// bails out on an error.
	jobs := make(chan job, cols.Len()/batchSize+1)
	errs := make(chan streamFailure, len(clients))
	var wg sync.WaitGroup
	// Per-stream jitter sources: rand.Rand is not goroutine-safe.
	seeds := make([]int64, len(clients))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	for i, cl := range clients {
		wg.Add(1)
		go func(cl *ingest.Client, seed int64) {
			defer wg.Done()
			jr := rand.New(rand.NewSource(seed))
			for j := range jobs {
				if _, err := cl.Send(ctx, slice(cols, j.lo, j.hi)); err != nil {
					errs <- streamFailure{stream: cl.Stream, err: err}
					return
				}
				if interval > 0 {
					// Each of the N streams paces to N×interval so the
					// aggregate hits the target rate.
					d := time.Duration(float64(interval) * float64(len(clients)))
					d += time.Duration((jr.Float64()*2 - 1) * pacingJitter * float64(d))
					time.Sleep(d)
				}
			}
		}(cl, seeds[i])
	}
	for lo := 0; lo < cols.Len(); lo += batchSize {
		jobs <- job{lo: lo, hi: min(lo+batchSize, cols.Len())}
	}
	close(jobs)
	wg.Wait()
	close(errs)
	var failed []streamFailure
	for f := range errs {
		failed = append(failed, f)
	}
	if len(failed) == 0 {
		return nil
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i].stream < failed[j].stream })
	var b strings.Builder
	fmt.Fprintf(&b, "%d of %d streams failed:", len(failed), len(clients))
	for _, f := range failed {
		fmt.Fprintf(&b, "\n  stream %d: %v", f.stream, f.err)
	}
	return fmt.Errorf("%s", b.String())
}

// slice views rows [lo, hi) of b without copying.
func slice(b *trace.ColumnBatch, lo, hi int) *trace.ColumnBatch {
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
