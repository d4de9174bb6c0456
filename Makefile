# telcolens build/CI entry points.
#
#   make build        compile everything
#   make vet          go vet
#   make lint         gofmt -l must be empty + doc-comment check on the
#                     public surfaces (scripts/doccheck.sh: telcolens.go,
#                     internal/trace, internal/stats and internal/analysis)
#                     + staticcheck ./...
#                     (override STATICCHECK to pin a local binary)
#   make test         go test ./...
#   make race         go test -race ./...
#   make bench-smoke  run the root benchmarks once: the DESIGN.md §7
#                     ablations and BenchmarkScanSharded (a cheap CI check
#                     that they still run; no statistics — performance is
#                     measured end to end by telcobench, `bash bench/run.sh`)
#   make alloc-check  assert the steady-state column scan loop and the
#                     column encode path allocate nothing per block
#                     and that a warm partition open allocates no read
#                     window (internal/trace allocation tests, among them
#                     TestOpenPartitionSteadyStateAllocs), that a
#                     UE-day of mobility planning through a warm worker
#                     Scratch allocates nothing (internal/mobility), that
#                     a warm durations shard's ObserveColumns and its
#                     MergeShard into the count histograms allocate
#                     nothing (internal/analysis:
#                     TestDurationsSteadyStateAllocs), and that a warm
#                     point-query miss allocates far less than one decoded
#                     batch (internal/query: TestQuerySteadyStateAllocs)
#   make bench-unit   vet and unit-test the telcobench module under
#                     bench/ (its own go.mod, so `go test ./...` from
#                     the root does not reach it); -short skips its
#                     end-to-end smoke run
#   make bench-e2e    the telcobench module's tests without -short:
#                     TestQuickSmoke runs every workload end to end and
#                     traced at -quick (~30 s), the one check that the
#                     traced replay still runs against the trace API
#   make examples     run every program under examples/ with go run
#                     (each generates a small campaign in a temporary
#                     directory and removes it); any non-zero exit
#                     fails the target
#   make profile      generate a campaign (once) and run telcoreport
#                     under -cpuprofile/-memprofile, so perf work starts
#                     from a pprof, not a guess; PROFILE_EXP names one
#                     experiment (empty, the default, profiles the whole
#                     30-artifact pass); tune PROFILE_DIR/PROFILE_ARGS
#                     too (telcogen takes the same two profile flags,
#                     and its summary line splits generation wall time
#                     into world build / simulate / write tail, with
#                     the overlapped day writer's busy time beside it)
#   make fuzz-smoke   30s of FuzzDecodeBlock on the block decoder, 30s
#                     of FuzzDecodeIndex on the partition index footer
#                     decoder (seeded from real footers),
#                     30s of FuzzResultJSON on the /query JSON renderer,
#                     30s of FuzzResumeAnalyzer on checkpoint
#                     decoding, 30s of FuzzPingPongAutomaton on the
#                     per-UE ping-pong automaton against the per-window
#                     oracle, 30s of FuzzLoadManifest on the
#                     store MANIFEST loader, then 30s of
#                     FuzzCanonicalOrder on the radix canonical day
#                     order against sort.Slice over CanonicalLess, then
#                     30s of FuzzDecodeBatch on the ingest batch
#                     decoder (seeded from real client bodies and WAL
#                     frames)
#   make soak         streaming-ingest crash-recovery soak: replay a
#                     campaign into telcoserve -ingest, kill -9 it
#                     mid-stream, restart, assert byte-identical
#                     artifacts (RACE=1 for race-instrumented binaries)
#   make chaos        seeded fault-injection matrix under -race: fail
#                     every durable operation at every Nth filesystem
#                     op (internal/chaos + internal/faultfs)
#   make chaos-soak   scrub/quarantine soak: telcofsck a damaged
#                     campaign, telcoserve -scrub serving degraded,
#                     checkpoint resume across SIGTERM
#                     (RACE=1 for race-instrumented binaries)
#   make netchaos     wire-level chaos matrix under -race: the seeded
#                     TCP proxy (internal/netchaos) injects resets,
#                     torn writes, latency, blackholes, trickle and
#                     bandwidth caps between ingest clients and the
#                     service, asserting typed errors or idempotent
#                     retries and byte-identical seals; includes the
#                     admission-control and client circuit-breaker
#                     suites and the telcoserve overload/slow-client
#                     tests
#   make ci           vet + build + race + bench-smoke + alloc-check +
#                     examples + bench-unit + bench-e2e, the CI test
#                     job's steps
#                     (CI also runs lint, the determinism matrix, the
#                     soaks, chaos, netchaos and fuzz — see
#                     .github/workflows/ci.yml)
#
# Daemon / tool flag reference (see each command's doc comment):
#   telcoserve  -data DIR     campaign directory to serve (default
#                             "campaign"); may start empty with -ingest
#               -addr ADDR    HTTP listen address (default :8480)
#               -poll DUR     MANIFEST poll interval (default 2s)
#               -parallel N   analysis scan and artifact render
#                             parallelism (0 = GOMAXPROCS); /query
#                             scans always use GOMAXPROCS
#               -ingest       mount the streaming /ingest/* endpoints
#               -wal-sync     fsync the ingest WAL on every batch
#               -scrub        audit and quarantine before serving
#               -checkpoint F resume an analyzer checkpoint whenever one is
#                             built cold; save it after every refresh
#               -drain DUR    graceful-shutdown drain budget
#               admission limits and the ingest backlog budget are the
#               package defaults (admission.Default*,
#               ingest.DefaultMaxPendingRecords; DESIGN.md §6c)
#               serves /artifacts, /query (indexed ad-hoc slices),
#               /stats and /healthz (both answer during overload)
#   telcoload   -src DIR -url http://HOST:PORT  replay a campaign into
#               a telcoserve -ingest endpoint; -rate records/sec,
#               -streams parallel clients
#               -retry-for DUR    per-send retry budget
#               -max-backoff DUR  cap on any retry wait (including
#                                 server Retry-After values)
#               -chaos-faults PLAN / -chaos-seed N
#                                 route the replay through an in-process
#                                 netchaos proxy injecting the PLAN
#                                 (e.g. 'reset:up:after=10:every=50,
#                                 latency:up:every=5:delay=2ms')

GO ?= go
STATICCHECK ?= $(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1
PROFILE_DIR ?= profile-campaign
PROFILE_EXP ?=
PROFILE_ARGS ?=

.PHONY: all vet lint build test race bench-smoke bench-unit bench-e2e alloc-check examples profile fuzz-smoke soak chaos chaos-soak netchaos ci

all: ci

vet:
	$(GO) vet ./...

lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	scripts/doccheck.sh
	$(STATICCHECK) ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass over the root benchmarks to catch bench-only breakage without
# paying for a statistical run.
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x .

# The benchmark harness is a separate module (bench/go.mod replaces
# telcolens with this checkout), so the root targets never build it.
bench-unit:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

bench-e2e:
	cd bench && $(GO) test -count 1 ./...

# Steady-state allocation check: decoding a block into a ColumnBatch,
# encoding a block from a ColumnBatch, and the pooled scan loop must not
# allocate per block, nor a warm partition open a read window, nor a day's
# canonical sort and shard bucketing through a warm DayScratch; planning a
# UE-day through a warm mobility.Scratch, and a warm durations shard's
# observe and merge into the count histograms, must not allocate at all.
# The tests are built out under -race (the detector skews allocation
# counts), so this is a separate non-race invocation.
alloc-check:
	$(GO) test -run 'SteadyStateAllocs|SteadyStateBlockAllocs' -count 1 ./internal/trace/ ./internal/mobility/ ./internal/analysis/ ./internal/query/

# The library examples, end to end: each must exit zero. Their output
# is not checked; the tests pin what they print.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# Profile a report pass end to end: the whole evaluation, or the one
# experiment PROFILE_EXP names. The campaign is generated once and
# reused; delete $(PROFILE_DIR) to regenerate.
profile: build
	@test -d $(PROFILE_DIR) || $(GO) run ./cmd/telcogen -out $(PROFILE_DIR) \
		-ues 6000 -days 14 -shards 4
	$(GO) run ./cmd/telcoreport -data $(PROFILE_DIR) $(if $(PROFILE_EXP),-exp $(PROFILE_EXP)) -v \
		-cpuprofile cpu.pprof -memprofile mem.pprof $(PROFILE_ARGS) > /dev/null
	@echo "wrote cpu.pprof and mem.pprof — inspect with: $(GO) tool pprof cpu.pprof"

fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzDecodeBlock -fuzztime 30s ./internal/trace/
	$(GO) test -run NONE -fuzz FuzzDecodeIndex -fuzztime 30s ./internal/trace/
	$(GO) test -run NONE -fuzz FuzzResultJSON -fuzztime 30s ./internal/query/
	$(GO) test -run NONE -fuzz FuzzResumeAnalyzer -fuzztime 30s ./internal/analysis/
	$(GO) test -run NONE -fuzz FuzzPingPongAutomaton -fuzztime 30s ./internal/analysis/
	$(GO) test -run NONE -fuzz FuzzLoadManifest -fuzztime 30s ./internal/trace/
	$(GO) test -run NONE -fuzz FuzzCanonicalOrder -fuzztime 30s ./internal/trace/
	# The network input path: every POST /ingest body and WAL batch frame.
	$(GO) test -run NONE -fuzz FuzzDecodeBatch -fuzztime 30s ./internal/ingest/

# End-to-end streaming ingest soak: telcoload replays a reference
# campaign into telcoserve -ingest at a fixed rate, the daemon is
# kill -9'd mid-stream and restarted (WAL replay), and every sealed
# partition plus every rendered artifact must come out byte-identical
# to the batch-generated reference. RACE=1 builds the binaries with the
# race detector (the CI soak job does).
soak:
	scripts/ingest_soak.sh

# Deterministic fault-injection matrix (internal/chaos): every durable
# operation — partition write, WAL append, seal commit, checkpoint
# save, indexed query, incremental refresh — is failed at every Nth
# filesystem op in turn under seeded faultfs plans, asserting a clean
# error with the old state intact or recovery to byte-identical
# artifacts. `make chaos-soak` adds the end-to-end scrub/quarantine
# half: telcofsck on a damaged campaign, telcoserve -scrub serving
# degraded, checkpoint resume across SIGTERM.
chaos:
	$(GO) test -race -count 1 ./internal/chaos/ ./internal/faultfs/

chaos-soak:
	scripts/chaos_soak.sh

# Wire-level chaos and overload matrix: the netchaos proxy fault plans
# (every fault a typed error or an idempotent retry; a full streamed
# campaign through an adversarial wire seals byte-identical to batch),
# the ingest client's breaker/backoff suite, the admission-control
# suite, and telcoserve's overload/deadline/slow-client tests — all
# under -race, mirroring `make chaos` one layer down the stack.
netchaos:
	$(GO) test -race -count 1 ./internal/netchaos/ ./internal/admission/ \
		./internal/ingest/ ./cmd/telcoserve/

ci: vet build race bench-smoke alloc-check examples bench-unit bench-e2e
