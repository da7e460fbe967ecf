GO ?= go

.PHONY: all fmt vet build test cover golden perfbench race bench fusion serve shard obs cluster stream loadgen check

all: check

# Fails when any Go file is not gofmt-formatted; CI runs the same gate.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# List every function under internal/ that the tier-1 tests never run (0.0%
# in one -coverpkg run), as file and name, and fail when one is missing from
# the committed list .github/never-run.txt. A function leaves that list by
# getting a test or by being deleted; CI runs the same gate.
cover:
	$(GO) test -coverpkg=./internal/... -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | awk '$$NF == "0.0%" { sub(/^pstlbench\//, "", $$1); sub(/:[0-9]+:$$/, "", $$1); print $$1, $$2 }' | LC_ALL=C sort > never-run.out
	@echo "functions no test runs:"; cat never-run.out
	@new=$$(LC_ALL=C comm -23 never-run.out .github/never-run.txt); \
	if [ -n "$$new" ]; then echo "not in .github/never-run.txt (test or delete them):"; echo "$$new"; exit 1; fi

# Rewrite internal/experiments/testdata/*.golden, the pinned (unmeasured)
# render of every experiment at the tests' quick scale. Review the diff:
# every changed line is a simulated number that moved.
golden:
	$(GO) test ./internal/experiments -run '^TestEveryExperimentProducesOutput$$' -update

# perfbench is a nested module, so the root ./... never reaches its
# oracle-gate tests; vet and test it on its own.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Race-check the concurrency-heavy packages: the work-stealing scheduler,
# the algorithms that drive it, the fused pipelines compiled onto it, the
# event-tracing layer its workers write to, the simulator that emits
# virtual-time traces, the adaptive grain tuner fed concurrently by harness
# observations, the multi-tenant job server racing submits against cancels
# and deadlines on one shared pool, the sharded router racing submits and
# cancels against a mid-backlog kill and log replay, the cluster transport
# racing retries, polls, and heartbeats against abrupt worker death, and
# the observability layer whose atomic instruments those servers update
# concurrently, and the streaming plane racing pushes, window closes, and
# job completions against flush.
race:
	$(GO) test -race ./internal/native/... ./internal/core/... ./internal/pipeline/... ./internal/trace/... ./internal/simexec/... ./internal/tune/... ./internal/serve/... ./internal/shard/... ./internal/cluster/... ./internal/obs/... ./internal/flow/...

bench:
	$(GO) test -run 'xxx' -bench 'SchedulerOverhead' -benchtime 1000x .
	$(GO) test -run 'xxx' -bench '^BenchmarkSort$$' -benchmem ./internal/core/
	$(GO) test -run 'xxx' -bench '^BenchmarkElementKernels$$' -benchmem ./internal/core/
	$(GO) test -run 'xxx' -bench '^BenchmarkServeJob$$' -benchmem ./internal/serve/
	$(GO) test -run 'xxx' -bench '^BenchmarkPush$$' -benchmem ./internal/flow/

# Fused-pipeline comparison: the 3-stage chain as staged core passes vs one
# fused chunk-granular pass (the chain entries of the kernel table: Go
# benchmarks, then the pstlbench chain rows with modeled traffic columns —
# the measured side), then the ext-fusion report (the simulator's predicted
# traffic drop and speedup).
fusion:
	$(GO) test -run 'xxx' -bench 'NativeKernels/chain' -benchtime 3x .
	$(GO) run ./cmd/pstlbench -mode native -algo chains -minexp 20 -maxexp 22
	$(GO) run ./cmd/pstlreport -exp ext-fusion -scale 4

# Run the algorithm-serving daemon on the local pool.
serve:
	$(GO) run ./cmd/pstld -addr :8080 -sched wfq

# Sharded serving tier: the 1-vs-4-shard router throughput benchmark, then
# the full ext-shard report (placement balance, modeled throughput scaling,
# and the real kill-and-replay durability run).
shard:
	$(GO) test -run 'xxx' -bench 'RouterThroughput' -benchtime 200x ./internal/shard/
	$(GO) run ./cmd/pstlreport -exp ext-shard -scale 4

# Distributed shard plane: the cluster package's transport and failover
# tests, then the full ext-cluster report (worker-death failover with the
# exactly-once checksum audit, and live ring growth's remap fraction).
cluster:
	$(GO) test ./internal/cluster/
	$(GO) run ./cmd/pstlreport -exp ext-cluster -scale 4

# Streaming plane: the flow package's replay-audit, backpressure, and
# shared-pool tests, then the full ext-stream report (exact comparison of
# a live stream against the sequential oracle, the 4x-burst backpressure
# bound, and the bursty-stream-beside-batch-tenant run) and a short live
# pstlstream run.
stream:
	$(GO) test ./internal/flow/
	$(GO) run ./cmd/pstlreport -exp ext-stream -scale 4
	$(GO) run ./cmd/pstlstream -replay 20000 -seed 7

# Observability: the disabled-path and enabled-path instrument benchmarks,
# then the full ext-obs report (span-based p99 attribution on a hot shard
# and span history across kill-and-replay).
obs:
	$(GO) test -run 'xxx' -bench 'MetricsDisabled|HistogramObserve|WindowsObserve' -benchtime 1000000x ./internal/obs/
	$(GO) run ./cmd/pstlreport -exp ext-obs

# Closed-loop load generator: a heavy and a light tenant on one pool;
# swap -sched fifo to see the light tenant's p99 blow up.
loadgen:
	$(GO) run ./cmd/pstld -loadgen -duration 2s -sched wfq \
		-spec "big:1:sort:1048576:4,small:1:reduce:65536:2"

check: fmt vet build test perfbench race
