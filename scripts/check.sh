#!/usr/bin/env bash
# Extended verify tier for the Buffalo reproduction (see ROADMAP.md):
#
#   1. gofmt -l        every tracked Go file is formatted
#   2. pointers        every `git show <commit>:<path>` that a top-level
#                      document or the verify skill cites resolves in this
#                      repository (`git cat-file -e`), so a number trimmed
#                      from the prose stays one command away. bench/ is not
#                      scanned
#   3. go vet          the stock toolchain analyzers (asmdecl holds
#                      internal/tensor/{gemm,rows,trans,gates,adam}_amd64.s to
#                      their Go declarations), then a GOARCH=arm64 build of
#                      everything and vet of internal/tensor: the portable
#                      GEMM, row, transcendental, LSTM-step and Adam loops are
#                      the only path there, and no amd64 run would notice them
#                      stop compiling
#   4. buffalo-vet     the domain-aware suite (errcheck, locksafe) over
#                      every module package; a //buffalo:vet-ignore that
#                      suppresses nothing fails here too. The same command
#                      as `make vet`. Leaked ledger allocations, stuck
#                      goroutines, new hot-path allocations and bad shapes
#                      are runtime properties the tier-1 tests catch
#                      (TestRunIterationWarmAllocs and
#                      TestServeRequestWarmAllocs hold the warm allocation
#                      counts, TestGoldenBits the estimator's predicted
#                      peaks bit for bit)
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
#   6. fuzz smoke      the eleven native fuzz targets for 5 s each, beyond the
#                      seed corpora tier-1 already runs: block.GenerateInto
#                      against GenerateNaive (with the sampler's position
#                      invariants), the tensor pool against its multiset
#                      model, the vector GEMM kernels, the vector row kernel,
#                      the vector exp/sigmoid/tanh kernel, the vector LSTM
#                      step kernels and the vector Adam step against the
#                      portable loops, the row-indexed GEMMs against the
#                      gathered products, the memest group accumulator
#                      against the map oracle, the feature cache against
#                      its heap oracle, the sequential stager's resident
#                      rows against a map-and-slice LRU model
#   7. bench module    go vet and the smoke test of the repository's
#                      benchmark (bench/, a module of its own that `./...`
#                      does not reach): every workload, both modes, tiny
#                      sizes, metric names checked against BENCHMARK.json
#   8. figures         Fig 13, Fig 16, Table III and scaleout at -quick
#                      -seed 3 through cmd/experiments: any error fails the
#                      gate — a Buffalo OOM or infeasible plan in Fig 13, a
#                      partitioned system that finds no K in Fig 16, a
#                      pipelined run that fails in scaleout (the one
#                      experiment that runs PlanAhead > 1). Fig 16 otherwise
#                      runs only in the opt-in TestAllExperiments
#   9. contention      internal/serve and internal/pipeline five times at
#                      each of -cpu 1, 2 and 4: their tests coordinate
#                      goroutines, and a test that assumes another goroutine
#                      made progress by now (a sleep) fails on a starved
#                      scheduler. 4.6 s on a 2-CPU host with the test
#                      binaries built. Then internal/train's pipelined,
#                      plan-ahead and prefetch tests once at -cpu 1 (4.4 s):
#                      five times at -cpu 1, 2 and 4 took 59-65 s there,
#                      over this step's 60 s allowance
#  10. go test -race   the full test suite under the race detector — the
#                      only race pass: the concurrent paths (obs recorder under
#                      the ledger mutex, the async loader's stages and
#                      shutdown, the plan-ahead pool's per-planner queues, the
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

echo "== evidence pointers =="
unresolved=0
while IFS= read -r ref; do
    if ! git cat-file -e "$ref" 2>/dev/null; then
        echo "unresolved pointer: git show $ref" >&2
        unresolved=1
    fi
done < <(git ls-files -z -- ':(glob)*.md' ':(glob)**/skills/verify/SKILL.md' |
    xargs -0 grep -ohE 'git show [0-9a-f]{7,40}:[A-Za-z0-9_./-]+' |
    sed -E 's/^git show //; s/[.,;:)]+$//' | sort -u)
if (( unresolved )); then
    exit 1
fi

echo "== go vet =="
go vet ./...
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor

echo "== buffalo-vet =="
go run ./cmd/buffalo-vet -timing ./...

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
go test -run '^$' -fuzz '^FuzzLSTMStepVectorVsPortable$' -fuzztime 5s ./internal/tensor
go test -run '^$' -fuzz '^FuzzAdamVectorVsPortable$' -fuzztime 5s ./internal/tensor
go test -run '^$' -fuzz '^FuzzMatMulRowsVsGathered$' -fuzztime 5s ./internal/tensor
go test -run '^$' -fuzz '^FuzzGroupAccumulator$' -fuzztime 5s ./internal/memest
go test -run '^$' -fuzz '^FuzzFeatureCacheModel$' -fuzztime 5s ./internal/pipeline
go test -run '^$' -fuzz '^FuzzResidentRows$' -fuzztime 5s ./internal/train

echo "== bench module gate =="
# bench/ replaces buffalo with ../, so this also proves every exported
# function the benchmark calls still has the signature it was written against.
(cd bench && go vet ./... && go test -count=1 ./...)

echo "== figures =="
for id in fig13 fig16 table3 scaleout; do
    go run ./cmd/experiments -run "$id" -quick -seed 3
done

echo "== contention =="
go test -count=5 -cpu 1,2,4 ./internal/serve ./internal/pipeline
go test -count=1 -cpu 1 -run 'Pipelined|PlanAhead|Prefetch' ./internal/train

echo "== go test -race =="
# Race instrumentation slows the heavy suites several-fold and packages
# run concurrently, so the default 10m per-package timeout is too tight on
# small machines; give them headroom. The single-goroutine artifact
# regenerations in internal/experiments skip themselves under race (see
# race_on.go there) — they run race-free in tier-1, and the concurrent
# paths have dedicated race coverage in device/block/train.
go test -race -timeout 30m ./...

echo "check: all gates passed"
