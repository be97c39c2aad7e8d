#!/usr/bin/env bash
# Extended verify tier for the Buffalo reproduction (see ROADMAP.md):
#
#   1. gofmt -l        every tracked Go file is formatted
#   2. go vet          the stock toolchain analyzers (asmdecl holds
#                      internal/tensor/{gemm,rows,trans}_amd64.s to their Go
#                      declarations), then a GOARCH=arm64 build of everything
#                      and vet of internal/tensor: the portable GEMM, row and
#                      transcendental loops are the only path there, and no
#                      amd64 run would notice them stop compiling
#   3. buffalo-vet     the domain-aware suite (errcheck, locksafe) over
#                      every module package; a //buffalo:vet-ignore that
#                      suppresses nothing fails here too. The same command
#                      as `make vet`. Leaked ledger allocations, stuck
#                      goroutines, new hot-path allocations and bad shapes
#                      are runtime properties: the tier-1 tests and the
#                      gates below catch them
#   4. report gate     a small deterministic cora run plus the four
#                      allocation-deterministic benchmarks (sequential hot
#                      loop, pipelined iteration, serving request, and the
#                      sequential iteration with the LSTM aggregator),
#                      serialized as a run manifest and gated by
#                      buffalo-report against the committed baseline
#                      (scripts/report_baseline.json): estimator-error
#                      drift and allocs/op growth fail here before they
#                      can creep into the paper's artifacts
#   5. tensordebug     internal/tensor, internal/nn and internal/gnn under
#                      -tags tensordebug: released pool matrices and uncleared
#                      checkouts (GetUninit) are filled with NaN, so a
#                      use-after-release or a read-before-write anywhere in
#                      the layers' forward/backward poisons a checked result,
#                      and the tag-only tests (poison reaches every GEMM's
#                      output even against an all-zero operand) run; plus
#                      internal/train's pooled-vs-unpooled iterations: the
#                      LSTM one, whose trajectory is arena-scoped from a
#                      micro-batch's forward to its backward while the engine
#                      resets the arena in between, and the mean ones
#                      (sequential, pipelined, 2-GPU, ZeRO-1, Infer), which
#                      cover the engine's uncleared probs; and the golden
#                      bit-identity matrix (TestGoldenBits), whose every
#                      number must survive the poison unchanged
#   6. fuzz smoke      the seven native fuzz targets for 5 s each, beyond the
#                      seed corpora tier-1 already runs: block.GenerateInto
#                      against GenerateNaive (with the sampler's position
#                      invariants), the tensor pool against its multiset
#                      model, the vector GEMM kernels, the vector row kernel
#                      and the vector exp/sigmoid/tanh kernel against the
#                      portable loops, the row-indexed GEMMs against the
#                      gathered products, the memest group accumulator
#                      against the map oracle
#   7. bench module    go vet and the smoke test of the repository's
#                      benchmark (bench/, a module of its own that `./...`
#                      does not reach): every workload, both modes, tiny
#                      sizes, metric names checked against BENCHMARK.json
#   8. go test -race   the full test suite under the race detector — the
#                      only race pass: the concurrent paths (obs recorder under
#                      the ledger mutex, the async loader's stages and
#                      shutdown, the plan-ahead pool and reorder buffer, the
#                      comm-engine clock, ZeRO-1 shard steps, the serving
#                      batcher) are all tests of packages under ./...
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
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor

echo "== buffalo-vet =="
go run ./cmd/buffalo-vet -timing ./...

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

echo "== tensordebug gate =="
go vet -tags tensordebug ./internal/tensor/... ./internal/nn/... ./internal/gnn/...
go test -tags tensordebug -count=1 ./internal/tensor/... ./internal/nn/... ./internal/gnn/...
go test -tags tensordebug -count=1 -run 'LSTM|PoolingBitIdentical|GoldenBits' ./internal/train

echo "== fuzz smoke =="
# go test accepts one -fuzz target in one package per run. A failing input
# is written under the package's testdata/fuzz/ — commit it with the fix.
go test -run '^$' -fuzz '^FuzzGenerateInto$' -fuzztime 5s ./internal/block
go test -run '^$' -fuzz '^FuzzPoolModel$' -fuzztime 5s ./internal/tensor
go test -run '^$' -fuzz '^FuzzGEMMVectorVsPortable$' -fuzztime 5s ./internal/tensor
go test -run '^$' -fuzz '^FuzzMeanRowsVectorVsPortable$' -fuzztime 5s ./internal/tensor
go test -run '^$' -fuzz '^FuzzTransVectorVsPortable$' -fuzztime 5s ./internal/tensor
go test -run '^$' -fuzz '^FuzzMatMulRowsVsGathered$' -fuzztime 5s ./internal/tensor
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
