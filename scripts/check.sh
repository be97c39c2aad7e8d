#!/usr/bin/env bash
# Extended verify tier for the Buffalo reproduction (see ROADMAP.md):
#
#   1. gofmt -l        every tracked Go file is formatted
#   2. go vet          the stock toolchain analyzers
#   3. buffalo-vet     the domain-aware suite (allocfree, errcheck, hotalloc,
#                      leaksafe, locksafe, shapecheck) over every module
#                      package, with stale-suppression detection on and the
#                      hot-path allocation census gated against the committed
#                      baseline (scripts/vet_hotalloc_baseline.json) — a new
#                      allocation site reachable from a hot root fails here
#                      until it is optimized away, justified with a
#                      //buffalo:vet-ignore, or deliberately re-baselined
#                      with -baseline-write
#   4. report gate     a small deterministic cora run plus the four
#                      allocation-deterministic benchmarks (sequential hot
#                      loop, pipelined iteration, serving request, and the
#                      sequential iteration with the LSTM aggregator),
#                      serialized as a run manifest and gated by
#                      buffalo-report against the committed baseline
#                      (scripts/report_baseline.json): estimator-error
#                      drift and allocs/op growth fail here before they
#                      can creep into the paper's artifacts
#   5. obs race gate   the observability tests (recorder, ledger events,
#                      timeline reconstruction, streaming tap/meter) under
#                      the race detector — a fast, focused pass so
#                      trace/ledger coherence regressions surface before
#                      the full suite
#   6. pipeline gate   the async-loader tests (bounded queues, fan-out
#                      lanes, prefetch shutdown/cancellation, feature
#                      cache, multi-GPU pipelined loading) under race
#   7. scaleout gate   the N-GPU scale-out tests (plan-ahead planner pool,
#                      reorder buffer, comm-engine clock, bucketed
#                      overlapped reduce) under race
#   8. sharded gate    the ZeRO-1 sharded-training tests (reduce-scatter/
#                      all-gather collectives on the comm clock, per-shard
#                      optimizer steps over the shared flat buffer,
#                      bit-identity and ledger accounting) under race
#   9. serving gate    the online-inference tests (micro-batching batcher,
#                      admission control against the ledger, shutdown
#                      drain, forward-only session) under race
#  10. tensordebug     internal/tensor, internal/nn and internal/gnn under
#                      -tags tensordebug: released pool matrices are filled
#                      with NaN, so a use-after-release anywhere in the
#                      layers' forward/backward poisons a checked result, and
#                      the tag-only tests (poison reaches every GEMM's output
#                      even against an all-zero operand) run; plus
#                      internal/train's LSTM iteration, whose trajectory is
#                      arena-scoped from a micro-batch's forward to its
#                      backward while the engine resets the arena in between
#  11. fuzz smoke      the three native fuzz targets for 5 s each, beyond the
#                      seed corpora tier-1 already runs: block.GenerateInto
#                      against GenerateNaive (with the sampler's position
#                      invariants), the tensor pool against its multiset
#                      model, the memest group accumulator against the map
#                      oracle
#  12. bench module    go vet and the smoke test of the repository's
#                      benchmark (bench/, a module of its own that `./...`
#                      does not reach): every workload, both modes, tiny
#                      sizes, metric names checked against BENCHMARK.json
#  13. go test -race   the full test suite under the race detector
#
# Run from anywhere; the script cds to the repository root. Fails fast on
# the first broken gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== buffalo-vet =="
go run ./cmd/buffalo-vet -stale-ignores -timing \
    -baseline scripts/vet_hotalloc_baseline.json ./...

echo "== report gate =="
# The run's schedule, memory estimator and the hot loops' allocation
# counts are all seeded and machine-independent, so any drift against the
# committed baseline manifest is a real regression — in internal/memest
# (estimator error) or on a hot path (allocs/op: the sequential iteration,
# the pipelined iteration with its staged loader, the serving request path
# and the LSTM-aggregator iteration are each gated so pooling regressions in
# any mode fail here).
# Wall-clock metrics ride along in the manifest but are deliberately not
# gated here. Re-baseline a justified change with:
#   go run ./cmd/buffalo-train -dataset cora -iters 3 -seed 7 -report scripts/report_baseline.json
#   go test -run xxx -bench 'BenchmarkRunIteration_ObsDisabled$|BenchmarkRunIteration_Pipelined$|BenchmarkServeRequest$|BenchmarkRunIteration_SequentialLSTM$' \
#       -benchtime 20x -benchmem . > /tmp/bench.txt
#   go run ./cmd/buffalo-report merge-bench -bench /tmp/bench.txt \
#       -manifest scripts/report_baseline.json -out scripts/report_baseline.json
reportdir=$(mktemp -d)
trap 'rm -rf "$reportdir"' EXIT
go run ./cmd/buffalo-train -dataset cora -iters 3 -seed 7 \
    -report "$reportdir/current.json" >/dev/null
go test -run xxx -bench 'BenchmarkRunIteration_ObsDisabled$|BenchmarkRunIteration_Pipelined$|BenchmarkServeRequest$|BenchmarkRunIteration_SequentialLSTM$' \
    -benchtime 20x -benchmem . > "$reportdir/bench.txt"
go run ./cmd/buffalo-report merge-bench -bench "$reportdir/bench.txt" \
    -manifest "$reportdir/current.json" -out "$reportdir/current.json" >/dev/null
go run ./cmd/buffalo-report gate \
    -baseline scripts/report_baseline.json -current "$reportdir/current.json" \
    -est-drift-pp 1 -allocs-pct 5

echo "== observability race gate =="
# The recorder is fed from under the GPU ledger mutex and from concurrent
# block-generation workers; these tests assert trace/ledger coherence (the
# reconstructed timeline peak must equal the ledger peak) and must stay
# race-clean on their own before the slow full-suite pass below.
go test -race -run Obs -count=1 ./internal/obs/... ./internal/device/... ./internal/train/...

echo "== pipeline race gate =="
# The async loader runs three stage goroutines against one consumer over
# bounded queues, with a headroom gate between the prefetcher and the
# consumer's allocations; in the multi-GPU configuration one shared loader
# feeds per-replica fan-out lanes and per-device caches. Its queue
# primitives and shutdown/cancellation tests must stay race-clean on their
# own before the slow full-suite pass.
go test -race -count=1 ./internal/pipeline/...
go test -race -count=1 -run 'TestPipelined|TestDataLoading|TestMultiGPUPipelined' ./internal/train/

echo "== scaleout race gate =="
# The N-GPU scale-out path: the plan-ahead pool runs several K-search
# workers against one sequence-number reorder buffer (ordered delivery,
# bounded window, shutdown/OOM unwinding), while the bucketed reduce books
# interconnect time on the cluster's comm-engine clock from the consumer as
# replicas finish backward. Both must stay race-clean on their own — the
# reorder buffer and comm clock are the two pieces of shared mutable state
# this path adds.
go test -race -count=1 -run 'TestReorder' ./internal/pipeline/
go test -race -count=1 -run 'TestRingReduce|TestAllReduceAsync|TestWaitReduce|TestCommClock' ./internal/device/
go test -race -count=1 -run 'TestCommOverlap|TestPlanAhead' ./internal/train/

echo "== sharded training race gate =="
# The ZeRO-1 data path: per-bucket reduce-scatters and the closing value
# all-gather book time on the same comm-engine clock the bucketed all-reduce
# uses, and the per-shard optimizer steps touch disjoint ranges of replica
# 0's shared flat buffer while per-replica device clocks advance. The
# sharded collectives and the bit-identity/accounting/ledger tests must stay
# race-clean on their own before the slow full-suite pass.
go test -race -count=1 -run 'TestShardedCollectives' ./internal/device/
go test -race -count=1 -run 'TestZeRO1' ./internal/train/

echo "== serving race gate =="
# The serving layer runs concurrent Infer callers against two goroutines —
# the coalescing batcher and the executing consumer — over the intake and
# execution channels, with the admission controller charging reservations
# to the same ledger the executor allocates from. Batch seal/shed/drain and
# the forward-only session's ledger hygiene must stay race-clean on their
# own before the slow full-suite pass.
go test -race -count=1 ./internal/serve/
go test -race -count=1 -run 'TestInfer|TestForwardOnly' ./internal/train/

echo "== tensordebug gate =="
go vet -tags tensordebug ./internal/tensor/... ./internal/nn/... ./internal/gnn/...
go test -tags tensordebug -count=1 ./internal/tensor/... ./internal/nn/... ./internal/gnn/...
go test -tags tensordebug -count=1 -run 'LSTM' ./internal/train

echo "== fuzz smoke =="
# go test accepts one -fuzz target in one package per run. A failing input
# is written under the package's testdata/fuzz/ — commit it with the fix.
go test -run '^$' -fuzz '^FuzzGenerateInto$' -fuzztime 5s ./internal/block
go test -run '^$' -fuzz '^FuzzPoolModel$' -fuzztime 5s ./internal/tensor
go test -run '^$' -fuzz '^FuzzGroupAccumulator$' -fuzztime 5s ./internal/memest

echo "== bench module gate =="
# bench/ replaces buffalo with ../, so this also proves every exported
# function the benchmark calls still has the signature it was written against.
(cd bench && go vet ./... && go test -count=1 ./...)

echo "== go test -race =="
# Race instrumentation slows the heavy suites several-fold and packages
# run concurrently, so the default 10m per-package timeout is too tight on
# small machines; give them headroom. The single-goroutine artifact
# regenerations in internal/experiments skip themselves under race (see
# race_on.go there) — they run race-free in tier-1, and the concurrent
# paths have dedicated race coverage in device/block/train.
go test -race -timeout 30m ./...

echo "check: all gates passed"
