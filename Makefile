# telcolens build/CI entry points.
#
#   make build        compile everything
#   make vet          go vet
#   make lint         gofmt -l must be empty + doc-comment check on the
#                     public surfaces (scripts/doccheck.sh: telcolens.go
#                     and internal/trace) + staticcheck ./...
#                     (override STATICCHECK to pin a local binary)
#   make test         go test ./...
#   make race         go test -race ./...
#   make bench-smoke  one pass over the scan benchmarks (cheap CI check
#                     that benches still run; no statistics)
#   make bench-gate-run
#                     the measured bench pass the CI regression gate
#                     feeds to cmd/benchgate: BenchmarkScan +
#                     BenchmarkScanSharded + the paired BenchmarkRunAll
#                     (record-at-a-time vs batch-native, plus the
#                     postscan leg timing repeat passes over a warm
#                     analyzer — the post-scan constant) + the paired
#                     BenchmarkRefresh (cold full state build vs
#                     checkpoint-resume + 1-new-day refresh) + the paired
#                     write-path benches BenchmarkWrite (legacy record
#                     encoder vs column-native encoder) and
#                     BenchmarkGenerateDay (record-writer vs columnar
#                     generation; since the planner's spatial index its
#                     one-day campaigns are mostly world build) + the
#                     generation hot path: paired BenchmarkNearestDistrict
#                     (linear scan of the district centres vs the exact
#                     geo.NearestIndex, with an index_speedup_x metric)
#                     and BenchmarkPlanDay (a population-day of mobility
#                     planning through a worker Scratch, 0 allocs/op)
#                     + BenchmarkIngest (streaming WAL
#                     append and whole-day seal cycle) + BenchmarkQuery
#                     (ad-hoc /query serving: indexed point lookup,
#                     windowed slice, cold/cached paths, parallel load
#                     with qps + tail latency), -count 5 with
#                     -benchmem, written to $(BENCH_OUT)
#   make alloc-check  assert the steady-state batch scan loop and the
#                     v2 column encode path allocate nothing per block
#                     (internal/trace allocation tests), and that a
#                     UE-day of mobility planning through a warm worker
#                     Scratch allocates nothing (internal/mobility)
#   make profile      generate a campaign (once) and run telcoanalyze
#                     under -cpuprofile/-memprofile, so perf work starts
#                     from a pprof, not a guess; tune PROFILE_EXP/
#                     PROFILE_DIR/PROFILE_ARGS (telcogen takes the same
#                     two flags, and its summary line splits generation
#                     wall time into world build / simulate / sort+encode)
#   make fuzz-smoke   30s of FuzzDecodeBlock on the v2 block decoder
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
#   make ci           vet + build + race + bench-smoke + alloc-check
#                     (the PR gate also runs lint, the determinism
#                     matrix, netchaos and benchgate — see
#                     .github/workflows/ci.yml)
#
# Daemon / tool flag reference (see each command's doc comment):
#   telcoserve  -data DIR     campaign directory to serve (default
#                             "campaign"); may start empty with -ingest
#               -addr ADDR    HTTP listen address (default :8480)
#               -poll DUR     MANIFEST poll interval (default 2s)
#               -parallel N   scan parallelism (0 = GOMAXPROCS)
#               -ingest       mount the streaming /ingest/* endpoints
#               -wal-sync     fsync the ingest WAL on every batch
#               -ingest-pending N
#                             ingest backlog budget in records before
#                             the daemon answers 429 (0 = default)
#               -query-inflight / -query-queue / -ingest-inflight /
#               -ingest-queue / -artifact-inflight / -artifact-queue
#                             per-endpoint admission limits: concurrent
#                             slots and bounded wait-queue depth per
#                             class (0 = defaults, negative queue = none)
#               -query-timeout DUR
#                             server-side cap on any /query deadline
#                             (the ?timeout= param is clamped to it)
#               -overload-window / -overload-threshold / -overload-cooldown
#                             sliding-window overload detector: this many
#                             rejections inside the window flips the
#                             daemon into declared degraded mode
#                             (cache-only /query, 429 elsewhere) for the
#                             cooldown
#               -retry-after DUR
#                             wait advertised in 429 Retry-After
#               serves /artifacts, /query (indexed ad-hoc slices),
#               /stats and /healthz (both answer during overload)
#   telcoload   -src DIR -url http://HOST:PORT  replay a campaign into
#               a telcoserve -ingest endpoint; -rate records/sec,
#               -batch per POST, -streams parallel clients, -reorder
#               window, -jitter pacing noise, -days prefix, -seed,
#               -noinit to skip /ingest/init
#               -retry-for DUR    per-send retry budget
#               -max-backoff DUR  cap on any retry wait (including
#                                 server Retry-After values)
#               -max-attempts N   attempt cap per send (0 = unlimited)
#               -breaker-fails N / -breaker-cooldown DUR
#                                 circuit breaker: consecutive transport
#                                 failures that open it, and how long it
#                                 short-circuits before a half-open probe
#               -chaos-faults PLAN / -chaos-seed N
#                                 route the replay through an in-process
#                                 netchaos proxy injecting the PLAN
#                                 (e.g. 'reset:up:after=10:every=50,
#                                 latency:up:every=5:delay=2ms')

GO ?= go
STATICCHECK ?= $(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1
BENCH_OUT ?= BENCH_out.txt
BENCH_PATTERN ?= BenchmarkScanSharded|BenchmarkScan$$|BenchmarkRunAll|BenchmarkRefresh|BenchmarkWrite|BenchmarkGenerateDay|BenchmarkNearestDistrict|BenchmarkPlanDay|BenchmarkIngest|BenchmarkQuery|BenchmarkOverload
PROFILE_DIR ?= profile-campaign
PROFILE_EXP ?= table5
PROFILE_ARGS ?=

.PHONY: all vet lint build test race bench-smoke bench-gate-run bench-baseline alloc-check profile fuzz-smoke soak chaos chaos-soak netchaos ci

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

# One pass over the scan benchmarks to catch bench-only regressions
# without paying for a full statistical run.
bench-smoke:
	$(GO) test -run NONE -bench '$(BENCH_PATTERN)' -benchtime 1x .

# The measured pass the CI bench gate compares across branches. Written
# to the file first and cat'ed after, so a bench failure fails the
# target (a `| tee` pipe under make's default shell would mask it).
# -benchmem records B/op and allocs/op in the BENCH_* artifacts; the
# hard zero-allocation assertion lives in `make alloc-check`.
bench-gate-run:
	@$(GO) test -run NONE -bench '$(BENCH_PATTERN)' -benchmem \
		-benchtime 2x -count 5 . > $(BENCH_OUT); s=$$?; cat $(BENCH_OUT); exit $$s

# Re-record the committed performance-trajectory anchor: run the gate's
# benchmark set and snapshot the per-benchmark medians into
# BENCH_baseline.json. The committed file is informational — the CI gate
# always re-measures the merge base instead of trusting a file measured
# on different hardware — but it pins where each perf PR started, so the
# trajectory across PRs stays reviewable in the history of one file.
bench-baseline: bench-gate-run
	$(GO) run ./cmd/benchgate -snapshot $(BENCH_OUT) -json BENCH_baseline.json

# Steady-state allocation check: decoding a block into a ColumnBatch (or
# record batch), encoding a block from columnar or record-batch ingest,
# and the pooled scan loop must not allocate per block; planning a
# UE-day through a warm mobility.Scratch must not allocate at all.
# The tests are built out under -race (the detector skews allocation
# counts), so this is a separate non-race invocation.
alloc-check:
	$(GO) test -run 'SteadyStateAllocs|SteadyStateBlockAllocs' -count 1 ./internal/trace/ ./internal/mobility/

# Profile an experiment end to end. The campaign is generated once and
# reused; delete $(PROFILE_DIR) to regenerate.
profile: build
	@test -d $(PROFILE_DIR) || $(GO) run ./cmd/telcogen -out $(PROFILE_DIR) \
		-ues 6000 -days 14 -shards 4
	$(GO) run ./cmd/telcoanalyze -data $(PROFILE_DIR) -exp $(PROFILE_EXP) -v \
		-cpuprofile cpu.pprof -memprofile mem.pprof $(PROFILE_ARGS) > /dev/null
	@echo "wrote cpu.pprof and mem.pprof — inspect with: $(GO) tool pprof cpu.pprof"

fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzDecodeBlock -fuzztime 30s ./internal/trace/

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

ci: vet build race bench-smoke alloc-check
