GO ?= go

.PHONY: check build test vet race replay-race bench bench-smoke fuzz-smoke chaos-smoke service-smoke dist-chaos-smoke bench-service bench-dispatch paper

# The tier-1 gate plus the concurrency-sensitive packages under the race
# detector. Run before committing.
check: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Concurrency-sensitive packages under the race detector: the event
# fan-out and the core profiler and probe consuming it, the VM (spawn/join
# thread goroutines, each emitting into its own fan-out), the experiments
# worker pool that the snapshot registry runs inside, the trace subsystem
# (per-thread writers seal on their threads' goroutines; the store's
# concurrent-record reservation), the distributed dispatcher (lease
# timers, breaker state, and worker keyed locks race against heartbeat
# streams), and the root package (the events/paths equivalence suite and
# the threaded transport-equivalence gate, which runs ≥2 threads emitting
# concurrently). Vet runs first so the leg is self-contained in CI.
race:
	$(GO) vet ./...
	$(GO) test -race . ./internal/events/... ./internal/core ./internal/vm ./internal/experiments/... ./internal/trace/... ./internal/service ./internal/dispatch ./probe

# The parallel-replay surface under the race detector, repeated: worker
# fan-out, chunk merging, cancellation, and the fleet differ are exactly
# the code where a rare interleaving hides, so this leg runs them -count=3.
replay-race:
	$(GO) test -race -count=3 -run 'ReplayParallel|ReplayRange|Fleet|ParallelMatches' . ./internal/trace/...

# Regenerate the machine-readable perf baselines (use -j 1 timings):
# BENCH_overhead.json (instrumentation overhead + memo ablation),
# BENCH_pipeline.json (one fan-out pass vs three dedicated passes), and
# BENCH_replay.json (parallel trace replay + Merkle diff).
bench:
	$(GO) run ./cmd/paper -j 1 bench -out BENCH_overhead.json -pipeline-out BENCH_pipeline.json -replay-out BENCH_replay.json

# One-iteration pass over every Go micro-benchmark — a fast compile-and-run
# sanity check that the benchmarks themselves still work — followed by the
# regression gates: per-mode overhead (fail when paths-mode slowdown
# exceeds the recorded BENCH_overhead.json baseline by more than 1.5x) and
# parallel replay (fail when the parallel stream diverges from sequential,
# or is slower than sequential on a multi-core runner).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...
	$(GO) run ./cmd/paper -j 1 bench -check

# Short live-fuzz legs over the decoder no-panic contracts: the trace
# reader must recover-or-refuse arbitrary bytes (v1 recovery scan and the
# v2 surface — checkpoints, range replay, parallel replay, range proofs),
# the checkpoint decoder must reject damage typed, and the path-counter
# decoder must reject arbitrary table/counter combinations without
# crashing or miscounting. The seed corpora also run as plain fixtures in
# `make test`.
fuzz-smoke:
	$(GO) test -run Fuzz -fuzz='FuzzReplay$$' -fuzztime=10s ./internal/trace
	$(GO) test -run Fuzz -fuzz=FuzzReplayV2 -fuzztime=10s ./internal/trace
	$(GO) test -run Fuzz -fuzz=FuzzCheckpointDecode -fuzztime=10s ./internal/trace
	$(GO) test -run Fuzz -fuzz=FuzzDecode -fuzztime=10s ./internal/pathdecode

# Seeded fault-injection sweep through the whole pipeline (see
# docs/FAULTS.md): every schedule must succeed, degrade deterministically,
# or fail with a typed fault class — any other outcome exits non-zero.
chaos-smoke:
	$(GO) run ./cmd/algoprof chaos -seeds 32
	$(GO) run ./cmd/algoprof chaos -service -seeds 16

# Distributed-dispatch chaos sweep under the race detector (see
# docs/SERVICE.md "Distributed operation"): seeded worker-crash /
# partition / slow-worker / corrupt-response schedules through a real
# daemon routing jobs to two worker HTTP servers. Zero lost jobs, typed
# failures only, and no damaged artifact ever ingested — any other
# outcome exits non-zero. Then a short distributed benchmark with its
# -check gate against a throwaway output file.
dist-chaos-smoke:
	$(GO) run -race ./cmd/algoprof chaos -dist -seeds 8
	$(GO) run ./cmd/algoprofd distbench -jobs 12 -out /tmp/BENCH_dispatch_smoke.json -check
	rm -f /tmp/BENCH_dispatch_smoke.json

# End-to-end daemon smoke (see docs/SERVICE.md): boot an in-process
# algoprofd on an ephemeral port, submit a job over HTTP, stream its NDJSON
# result, audit the persisted run (the same checks `algoprof verify` runs),
# byte-compare the returned profile against the library API, then a short
# loadgen where every job must terminate ok/degraded/typed-failed with
# zero lost.
service-smoke:
	$(GO) run ./cmd/algoprofd smoke -jobs 60

# Regenerate the committed BENCH_service.json baseline: a real daemon on a
# local port hammered with 1000 concurrent jobs across 4 tenants.
bench-service:
	$(GO) build -o /tmp/algoprofd-bench ./cmd/algoprofd
	/tmp/algoprofd-bench serve -addr 127.0.0.1:7171 -store /tmp/algoprofd-bench-store & \
	APD=$$!; sleep 1; \
	/tmp/algoprofd-bench loadgen -addr http://127.0.0.1:7171 -jobs 1000 -c 64 -tenants 4 -out BENCH_service.json -check; \
	RC=$$?; kill -TERM $$APD; wait $$APD 2>/dev/null; rm -rf /tmp/algoprofd-bench-store; exit $$RC

# Regenerate the committed BENCH_dispatch.json baseline: a crash-0/1/2
# leg each pushing a batch through the distributed dispatch stack while
# that many workers die abruptly mid-batch. The -check gate requires
# zero lost jobs and zero untyped failures in every leg.
bench-dispatch:
	$(GO) run ./cmd/algoprofd distbench -out BENCH_dispatch.json -check

# Regenerate every table and figure of the paper.
paper:
	$(GO) run ./cmd/paper all
