package device

import (
	"testing"
	"time"
)

// overlapGPU builds a device with a round-number transfer model: 1 byte/ns
// bandwidth and zero latency, so a transfer of N bytes takes exactly N ns.
func overlapGPU() *GPU {
	g := NewGPU("ov", GB)
	g.bandwidth, g.latency = 1e9, 0
	return g
}

// TestTransferAsyncFullyHiddenBehindCompute: a prefetch issued before enough
// compute runs is fully hidden — WaitTransfer sees no stall, the stall clock
// stays zero, and the transfer clock still records the engine's busy time.
func TestTransferAsyncFullyHiddenBehindCompute(t *testing.T) {
	g := overlapGPU()
	done := g.TransferH2DAsync(1000) // copy engine busy [0, 1000ns]
	if done != 1000*time.Nanosecond {
		t.Fatalf("completion position = %v, want 1000ns", done)
	}
	g.AddComputeTime(5000 * time.Nanosecond) // compute front at 5000ns
	if stall := g.WaitTransfer(done); stall != 0 {
		t.Fatalf("stall = %v, want 0 (copy finished at 1000ns, compute at 5000ns)", stall)
	}
	st := g.Stats()
	if st.StallTime != 0 {
		t.Fatalf("StallTime = %v, want 0", st.StallTime)
	}
	if st.TransferTime != 1000*time.Nanosecond {
		t.Fatalf("TransferTime = %v, want 1000ns busy time", st.TransferTime)
	}
}

// TestTransferAsyncExposedWithoutCompute: with no compute to hide behind the
// whole copy is exposed — the cold-start case of a double-buffered loader.
func TestTransferAsyncExposedWithoutCompute(t *testing.T) {
	g := overlapGPU()
	done := g.TransferH2DAsync(1000)
	if stall := g.WaitTransfer(done); stall != 1000*time.Nanosecond {
		t.Fatalf("stall = %v, want the full 1000ns", stall)
	}
	if st := g.Stats(); st.StallTime != 1000*time.Nanosecond {
		t.Fatalf("StallTime = %v, want 1000ns", st.StallTime)
	}
}

// TestTransferAsyncPartialOverlap: compute hides part of the copy; only the
// remainder stalls.
func TestTransferAsyncPartialOverlap(t *testing.T) {
	g := overlapGPU()
	done := g.TransferH2DAsync(1000)        // finishes at 1000ns
	g.AddComputeTime(400 * time.Nanosecond) // compute front at 400ns
	if stall := g.WaitTransfer(done); stall != 600*time.Nanosecond {
		t.Fatalf("stall = %v, want 600ns", stall)
	}
	// The compute front advanced to the copy's completion: a second wait on
	// the same completion position costs nothing.
	if stall := g.WaitTransfer(done); stall != 0 {
		t.Fatalf("re-wait stall = %v, want 0", stall)
	}
}

// TestTransferAsyncCopyEngineSerializes: back-to-back async copies queue on
// the single copy engine — the second starts when the first finishes.
func TestTransferAsyncCopyEngineSerializes(t *testing.T) {
	g := overlapGPU()
	d1 := g.TransferH2DAsync(1000)
	d2 := g.TransferH2DAsync(500)
	if d1 != 1000*time.Nanosecond || d2 != 1500*time.Nanosecond {
		t.Fatalf("completions = %v, %v; want 1000ns, 1500ns", d1, d2)
	}
}

// TestTransferAsyncIssueFloor: a prefetch cannot start before "now" — the
// compute engine's position at issue time floors the copy's start.
func TestTransferAsyncIssueFloor(t *testing.T) {
	g := overlapGPU()
	g.AddComputeTime(2000 * time.Nanosecond)
	done := g.TransferH2DAsync(1000)
	if done != 3000*time.Nanosecond {
		t.Fatalf("completion = %v, want 3000ns (issued at compute front 2000ns)", done)
	}
}

// TestTransferSyncAdvancesBothFronts: a synchronous copy stalls the compute
// engine by construction, so a later prefetch issues after it.
func TestTransferSyncAdvancesBothFronts(t *testing.T) {
	g := overlapGPU()
	g.TransferH2D(1000) // both fronts at 1000ns
	done := g.TransferH2DAsync(500)
	if done != 1500*time.Nanosecond {
		t.Fatalf("completion = %v, want 1500ns", done)
	}
	if st := g.Stats(); st.StallTime != 0 {
		t.Fatalf("sync transfers must not count as stalls, got %v", st.StallTime)
	}
}
