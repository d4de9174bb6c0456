package netchaos

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"telcolens/internal/causes"
	"telcolens/internal/devices"
	"telcolens/internal/ingest"
	"telcolens/internal/simulate"
	"telcolens/internal/topology"
	"telcolens/internal/trace"
)

// Rule counters are per-rule and deterministic: a plan fires on
// exactly the occurrences it names, and ops of other classes do not
// advance the counter.
func TestRuleMatching(t *testing.T) {
	rs := &ruleState{Rule: Rule{Op: OpUp, After: 2, Count: 2, Kind: KindReset}}
	var fired []int
	for i := 0; i < 8; i++ {
		rs.matches(OpDown) // other class: must not consume occurrences
		if rs.matches(OpUp) {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 3 {
		t.Fatalf("contiguous rule fired at %v, want [2 3]", fired)
	}

	ev := &ruleState{Rule: Rule{Op: OpDown, After: 1, Every: 3, Count: 2}}
	fired = fired[:0]
	for i := 0; i < 12; i++ {
		if ev.matches(OpDown) {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 4 {
		t.Fatalf("periodic rule fired at %v, want [1 4]", fired)
	}

	unl := &ruleState{Rule: Rule{Op: OpUp, Every: 2, Count: -1}}
	n := 0
	for i := 0; i < 10; i++ {
		if unl.matches(OpUp) {
			n++
		}
	}
	if n != 5 {
		t.Fatalf("unbounded periodic rule fired %d times over 10 ops, want 5", n)
	}
}

func TestParseRules(t *testing.T) {
	rules, err := ParseRules("reset:up:after=10:every=50, torn:up:after=100:frac=0.3, latency:down:delay=5ms:jitter=2ms, trickle:up:delay=1ms:bytes=64, bandwidth:down:rate=65536, blackhole:down:after=200:count=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 6 {
		t.Fatalf("parsed %d rules, want 6", len(rules))
	}
	r := rules[0]
	if r.Kind != KindReset || r.Op != OpUp || r.After != 10 || r.Every != 50 {
		t.Fatalf("rule 0 = %+v", r)
	}
	if rules[1].Frac != 0.3 || rules[2].Delay != 5*time.Millisecond ||
		rules[2].Jitter != 2*time.Millisecond || rules[3].TrickleBytes != 64 ||
		rules[4].Rate != 65536 || rules[5].Count != 1 {
		t.Fatalf("parsed fields wrong: %+v", rules)
	}
	for _, bad := range []string{"explode:up", "reset:sideways", "reset:up:after=x", "reset:up:when=3", "reset"} {
		if _, err := ParseRules(bad); err == nil {
			t.Fatalf("ParseRules(%q) accepted", bad)
		}
	}
}

// chaosMeta is a minimal streaming campaign descriptor (the netchaos
// twin of the ingest package's testMeta).
func chaosMeta(windowDays int) *simulate.CampaignMeta {
	return &simulate.CampaignMeta{
		Config: simulate.Config{
			Seed:       7,
			Days:       0,
			WindowDays: windowDays,
			UEs:        10,
		},
	}
}

// chaosBatch builds n deterministic records inside one study day,
// varied by salt so distinct batches hold distinct rows.
func chaosBatch(day, n, salt int) *trace.ColumnBatch {
	cb := new(trace.ColumnBatch)
	base := trace.DayStart(day).UnixMilli()
	var rec trace.Record
	for i := 0; i < n; i++ {
		k := i + salt*1000
		rec.Timestamp = base + int64(k%86_400_000)
		rec.UE = trace.UEID(k % 7)
		rec.TAC = devices.TAC(350000 + k%5)
		rec.Source = topology.SectorID(100 + k%13)
		rec.Target = topology.SectorID(200 + k%11)
		rec.Cause = causes.Code(k % 30)
		rec.SourceRAT = 1
		rec.TargetRAT = 2
		rec.Result = trace.Result(k % 2)
		rec.DurationMs = float32(k%500) / 10
		cb.AppendRecord(&rec)
	}
	return cb
}

// newIngestStack starts an initialized ingest service, its HTTP
// surface, and a chaos proxy in front, returning the service (for
// direct state assertions) and the proxy.
func newIngestStack(t *testing.T, rules []Rule) (*ingest.Service, *Proxy) {
	t.Helper()
	svc, err := ingest.Open(t.TempDir(), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	if err := svc.Init(chaosMeta(1)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	p, err := New(strings.TrimPrefix(srv.URL, "http://"), Options{Rules: rules, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return svc, p
}

// resilientClient is an ingest client tuned so retries through a hostile
// proxy converge fast under test.
func resilientClient(base string, stream uint32) *ingest.Client {
	return &ingest.Client{
		Base:            base,
		Stream:          stream,
		HTTP:            &http.Client{Timeout: time.Second},
		RetryFor:        30 * time.Second,
		MaxBackoff:      10 * time.Millisecond,
		FailThreshold:   4,
		BreakerCooldown: 20 * time.Millisecond,
	}
}

// TestProxyFaultMatrix drives the ingest client through the proxy under
// every fault kind in turn. The contract for each: every logical send
// either succeeds (possibly via idempotent retry — duplicates are
// detected, never double-counted) or fails with a clean error, and the
// server's accepted multiset equals the sent multiset. No partial acks,
// no hangs.
func TestProxyFaultMatrix(t *testing.T) {
	const batches, perBatch = 5, 40
	cases := []struct {
		name  string
		rules []Rule
		fired func(Stats) int64
	}{
		{"reset-up", []Rule{{Op: OpUp, After: 1, Kind: KindReset}}, func(s Stats) int64 { return s.Resets }},
		{"reset-down", []Rule{{Op: OpDown, Kind: KindReset}}, func(s Stats) int64 { return s.Resets }},
		{"torn-up", []Rule{{Op: OpUp, After: 2, Kind: KindTorn, Frac: 0.4}}, func(s Stats) int64 { return s.Torn }},
		{"torn-down", []Rule{{Op: OpDown, After: 1, Kind: KindTorn}}, func(s Stats) int64 { return s.Torn }},
		{"blackhole-up", []Rule{{Op: OpUp, After: 1, Kind: KindBlackhole}}, func(s Stats) int64 { return s.Blackholed }},
		{"blackhole-down", []Rule{{Op: OpDown, After: 1, Kind: KindBlackhole}}, func(s Stats) int64 { return s.Blackholed }},
		{"latency", []Rule{{Op: OpUp, Count: -1, Kind: KindLatency, Delay: time.Millisecond, Jitter: time.Millisecond}}, func(s Stats) int64 { return s.Delayed }},
		{"trickle-down", []Rule{{Op: OpDown, Count: -1, Kind: KindTrickle, Delay: 100 * time.Microsecond, TrickleBytes: 16}}, func(s Stats) int64 { return s.Trickled }},
		{"bandwidth-up", []Rule{{Op: OpUp, Count: -1, Kind: KindBandwidth, Rate: 512 << 10}}, func(s Stats) int64 { return s.Throttled }},
		{"dial-fail", []Rule{{Op: OpDial, Count: 2, Kind: KindReset}}, func(s Stats) int64 { return s.DialErrors }},
		{"accept-reset", []Rule{{Op: OpAccept, Count: 2, Kind: KindReset}}, func(s Stats) int64 { return s.Resets }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, p := newIngestStack(t, tc.rules)
			cl := resilientClient(p.URL(), 1)
			var accepted, acked int
			for b := 0; b < batches; b++ {
				res, err := cl.Send(context.Background(), chaosBatch(0, perBatch, b))
				if err != nil {
					t.Fatalf("send %d did not converge through %s: %v", b, tc.name, err)
				}
				if res.Accepted+res.Duplicate != perBatch {
					t.Fatalf("send %d partial ack: %+v", b, res)
				}
				accepted += res.Accepted
				acked += res.Accepted + res.Duplicate
			}
			// Idempotency: every record landed exactly once, whatever the
			// acks said about retries.
			if st := svc.Stats(); st.MemtableRecords != batches*perBatch {
				t.Fatalf("server holds %d records, want %d (accepted=%d acked=%d, proxy=%+v)",
					st.MemtableRecords, batches*perBatch, accepted, acked, p.Stats())
			}
			if tc.fired(p.Stats()) == 0 {
				t.Fatalf("fault %s never fired: %+v", tc.name, p.Stats())
			}
		})
	}
}

// A wire that stays dead fails the send with a typed clean error — the
// circuit breaker's — and leaves no partial state on the server.
func TestDeadWireTypedError(t *testing.T) {
	svc, p := newIngestStack(t, []Rule{{Op: OpAccept, Count: -1, Kind: KindReset}})
	cl := resilientClient(p.URL(), 1)
	cl.RetryFor = 300 * time.Millisecond
	cl.FailThreshold = 2
	cl.BreakerCooldown = time.Hour

	_, err := cl.Send(context.Background(), chaosBatch(0, 10, 0))
	var open *ingest.BreakerOpenError
	if !errors.As(err, &open) {
		t.Fatalf("send over dead wire = %v, want BreakerOpenError", err)
	}
	if st := svc.Stats(); st.MemtableRecords != 0 {
		t.Fatalf("dead wire still landed %d records", st.MemtableRecords)
	}
	if m := cl.Metrics(); m.BreakerOpens != 1 || m.TransportFailures != 2 {
		t.Fatalf("client metrics = %+v", m)
	}
}

// dayRecords reads every record of one study day back out of a
// campaign directory, across all shards.
func dayRecords(t *testing.T, dir string, day int) *trace.ColumnBatch {
	t.Helper()
	fs, err := trace.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := fs.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	out := new(trace.ColumnBatch)
	var cb trace.ColumnBatch
	for _, p := range parts {
		if p.Day != day {
			continue
		}
		it, err := fs.OpenPartition(p.Day, p.Shard)
		if err != nil {
			t.Fatal(err)
		}
		for {
			n, err := it.NextColumns(&cb)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			out.AppendColumns(&cb)
		}
		it.Close()
	}
	return out
}

// compareSealedDirs asserts the sealed artifacts — partitions and the
// campaign descriptor — are byte-identical across two campaign
// directories.
func compareSealedDirs(t *testing.T, want, got string) {
	t.Helper()
	read := func(dir string) map[string][]byte {
		out := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if name != "manifest.json" && !strings.HasSuffix(name, ".tlho") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			out[name] = data
		}
		return out
	}
	w, g := read(want), read(got)
	if len(w) == 0 {
		t.Fatal("reference campaign has no sealed artifacts")
	}
	for name, data := range w {
		gd, ok := g[name]
		if !ok {
			t.Errorf("missing %s", name)
			continue
		}
		if !bytes.Equal(data, gd) {
			t.Errorf("%s differs (%d vs %d bytes)", name, len(data), len(gd))
		}
	}
	for name := range g {
		if _, ok := w[name]; !ok {
			t.Errorf("unexpected %s", name)
		}
	}
}

// TestStreamedThroughChaosMatchesBatch is the wire-level acceptance
// property: a full campaign streamed through an adversarial proxy —
// connection resets, torn writes, injected latency, trickled acks, the
// lot — seals byte-identical to the batch-generated reference. Every
// fault along the way resolved into an idempotent retry.
func TestStreamedThroughChaosMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a campaign")
	}
	src := t.TempDir()
	fs, err := trace.NewFileStore(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulate.DefaultConfig(42)
	cfg.UEs = 250
	cfg.Days = 2
	cfg.Shards = 2
	cfg.Store = fs
	ds, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveManifest(src); err != nil {
		t.Fatal(err)
	}
	meta, err := simulate.LoadMeta(src)
	if err != nil {
		t.Fatal(err)
	}

	// Re-deliver as a shuffled, interleaved live stream.
	rng := rand.New(rand.NewSource(7))
	const batchSize = 157
	batches := make([][]*trace.ColumnBatch, cfg.Days)
	for day := 0; day < cfg.Days; day++ {
		recs := dayRecords(t, src, day)
		perm := rng.Perm(recs.Len())
		for lo := 0; lo < len(perm); lo += batchSize {
			hi := min(lo+batchSize, len(perm))
			idx := make([]int32, 0, hi-lo)
			for _, p := range perm[lo:hi] {
				idx = append(idx, int32(p))
			}
			b := new(trace.ColumnBatch)
			b.AppendGather(recs, idx)
			batches[day] = append(batches[day], b)
		}
	}

	dst := t.TempDir()
	svc, err := ingest.Open(dst, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// The adversarial wire: periodic resets in both directions, torn
	// writes mid-request, latency with seeded jitter, trickled acks,
	// and the occasional connection killed at accept.
	p, err := New(strings.TrimPrefix(srv.URL, "http://"), Options{
		Seed: 1337,
		Rules: []Rule{
			{Op: OpUp, After: 3, Every: 11, Kind: KindReset},
			{Op: OpUp, After: 7, Every: 17, Kind: KindTorn, Frac: 0.5},
			{Op: OpDown, After: 4, Every: 13, Kind: KindReset},
			{Op: OpUp, After: 1, Every: 3, Kind: KindLatency, Delay: 200 * time.Microsecond, Jitter: 300 * time.Microsecond},
			{Op: OpDown, After: 2, Every: 19, Kind: KindTrickle, Delay: 50 * time.Microsecond, TrickleBytes: 32},
			{Op: OpAccept, After: 3, Every: 9, Kind: KindReset},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// One client per stream (= study day), all pointed at the proxy.
	clients := make([]*ingest.Client, cfg.Days)
	for day := range clients {
		clients[day] = resilientClient(p.URL(), uint32(day))
	}
	ctx := context.Background()
	streamMeta := *meta
	streamMeta.Config.Days = 0
	streamMeta.Config.WindowDays = cfg.Days
	streamMeta.DayStats = nil
	if err := clients[0].Init(ctx, &streamMeta); err != nil {
		t.Fatal(err)
	}

	// Interleave all days' batches round-robin through the hostile wire.
	sent := 0
	for i := 0; ; i++ {
		any := false
		for day := 0; day < cfg.Days; day++ {
			if i >= len(batches[day]) {
				continue
			}
			any = true
			res, err := clients[day].Send(ctx, batches[day][i])
			if err != nil {
				t.Fatalf("day %d batch %d did not converge: %v (proxy %+v)", day, i, err, p.Stats())
			}
			if res.Accepted+res.Duplicate != batches[day][i].Len() {
				t.Fatalf("day %d batch %d partial ack: %+v", day, i, res)
			}
			sent += batches[day][i].Len()
		}
		if !any {
			break
		}
	}
	for day := 0; day < cfg.Days; day++ {
		if err := clients[day].DayDone(ctx, day, meta.DayStats[day]); err != nil {
			t.Fatalf("day %d completion did not converge: %v", day, err)
		}
	}
	if st := svc.Stats(); st.SealedDays != cfg.Days || st.MemtableRecords != 0 {
		t.Fatalf("post-stream stats = %+v after %d records", st, sent)
	}

	// The proxy must actually have been adversarial, or this test
	// proves nothing.
	ps := p.Stats()
	if ps.Resets == 0 || ps.Torn == 0 || ps.Delayed == 0 {
		t.Fatalf("fault plan never fired: %+v", ps)
	}
	t.Logf("streamed %d records through %+v", sent, ps)

	compareSealedDirs(t, src, dst)
	if _, err := simulate.Load(dst); err != nil {
		t.Fatal(err)
	}
}
