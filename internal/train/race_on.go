//go:build race

package train

// raceEnabled reports whether this build carries race instrumentation.
// The heaviest numerical regression tests skip themselves under race:
// instrumentation slows them ~20x, enough to blow past gate timeouts,
// while their hot loops are single-goroutine GEMM/backward passes that
// race detection cannot say anything about. The concurrent paths stay
// race-covered: the data-parallel trainer tests run under race here, and
// the GPU ledger and concurrent block generation over one batch have
// dedicated stress tests in internal/device and internal/block.
const raceEnabled = true
