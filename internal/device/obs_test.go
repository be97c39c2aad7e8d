package device

import (
	"math/rand"
	"sync"
	"testing"

	"buffalo/internal/obs"
)

// TestObsLedgerTraceExactReplay drives a single-goroutine alloc/free
// schedule through a recorded GPU and checks the timeline reconstructor
// replays the ledger exactly: same peak, same final live bytes, and a
// peak-instant coexistence set summing to the peak.
func TestObsLedgerTraceExactReplay(t *testing.T) {
	tr := obs.NewTrace()
	rec := obs.NewRecorder(tr, obs.NewMetrics())
	g := NewGPU("gpu-obs", 1000, WithRecorder(rec))

	model, err := g.Alloc("model", 300)
	if err != nil {
		t.Fatal(err)
	}
	var transient []*Allocation
	for i := 0; i < 3; i++ {
		feat, err := g.Alloc("features", 100)
		if err != nil {
			t.Fatal(err)
		}
		act, err := g.Alloc("activations/layer0", 150)
		if err != nil {
			t.Fatal(err)
		}
		transient = append(transient, feat, act)
		if i < 2 { // keep the last micro-batch live so peak != final
			feat.Free()
			act.Free()
			transient = transient[:0]
		}
	}
	// A rejected charge must appear as an OOM event, not an alloc.
	if _, err := g.Alloc("too-big", 900); !IsOOM(err) {
		t.Fatalf("expected OOM, got %v", err)
	}

	tl := obs.Reconstruct(tr.Events(), "gpu-obs")
	if tl.Peak != g.Stats().Peak {
		t.Fatalf("timeline peak %d != ledger peak %d", tl.Peak, g.Stats().Peak)
	}
	if tl.Final != g.Live() {
		t.Fatalf("timeline final %d != ledger live %d", tl.Final, g.Live())
	}
	if tl.OOMs != 1 {
		t.Fatalf("timeline OOMs = %d, want 1", tl.OOMs)
	}
	var sum int64
	for _, a := range tl.PeakSet {
		sum += a.Bytes
	}
	if sum != tl.Peak {
		t.Fatalf("peak coexistence set sums to %d, want %d (%+v)", sum, tl.Peak, tl.PeakSet)
	}
	for _, a := range transient {
		a.Free()
	}
	model.Free()
	if tlEnd := obs.Reconstruct(tr.Events(), "gpu-obs"); tlEnd.Final != 0 {
		t.Fatalf("after freeing everything the replayed live is %d", tlEnd.Final)
	}
}

// TestObsConcurrentRecordingStress hammers a recorded GPU from many
// goroutines. Ledger events are recorded under the ledger mutex, so even
// under concurrency the trace is a coherent serialization: the replayed
// peak must equal the ledger's peak and the replayed final live must equal
// the ledger's live count. Run under -race by scripts/check.sh.
func TestObsConcurrentRecordingStress(t *testing.T) {
	tr := obs.NewTrace()
	m := obs.NewMetrics()
	rec := obs.NewRecorder(tr, m)
	g := NewGPU("gpu-obs", 64*MB, WithRecorder(rec))

	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				size := int64(rng.Intn(1<<20) + 1)
				a, err := g.Alloc("stress", size)
				if err != nil {
					if !IsOOM(err) {
						t.Errorf("worker %d: %v", w, err)
					}
					continue
				}
				g.TransferH2D(size)
				a.Free()
			}
		}(w)
	}
	wg.Wait()

	tl := obs.Reconstruct(tr.Events(), "gpu-obs")
	if tl.Peak != g.Stats().Peak {
		t.Fatalf("replayed peak %d != ledger peak %d", tl.Peak, g.Stats().Peak)
	}
	if tl.Final != g.Live() || tl.Final != 0 {
		t.Fatalf("replayed final %d, ledger live %d, want 0", tl.Final, g.Live())
	}
	allocs := m.Counter("alloc/count").Value()
	frees := m.Counter("free/count").Value()
	ooms := m.Counter("oom/count").Value()
	if allocs != frees {
		t.Fatalf("alloc count %d != free count %d", allocs, frees)
	}
	if allocs+ooms != workers*iters {
		t.Fatalf("alloc(%d)+oom(%d) != %d attempts", allocs, ooms, workers*iters)
	}
	if h2d := m.Counter("h2d/count").Value(); h2d != allocs {
		t.Fatalf("h2d count %d != alloc count %d", h2d, allocs)
	}
}

// TestObsRingTraceUnderLedger proves bounded-memory tracing stays coherent
// for what it retains: the ring holds the most recent events and the
// device keeps functioning when the ring wraps.
func TestObsRingTraceUnderLedger(t *testing.T) {
	tr := obs.NewRingTrace(16)
	g := NewGPU("g", GB, WithRecorder(obs.NewRecorder(tr, nil)))
	for i := 0; i < 50; i++ {
		a, err := g.Alloc("x", 1)
		if err != nil {
			t.Fatal(err)
		}
		a.Free()
	}
	if tr.Len() != 16 {
		t.Fatalf("ring len %d", tr.Len())
	}
	if tr.Dropped() != 100-16 {
		t.Fatalf("dropped %d, want %d", tr.Dropped(), 100-16)
	}
}

// TestObsClusterAllReduceRecorded checks the interconnect reports to the
// same recorder the per-GPU option installed.
func TestObsClusterAllReduceRecorded(t *testing.T) {
	m := obs.NewMetrics()
	rec := obs.NewRecorder(nil, m)
	c, err := NewCluster("n", 2, MB, WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	if syncReduce(c, 1<<20) <= 0 {
		t.Fatal("no all-reduce time")
	}
	if got := m.Counter("bucketreduce/count").Value(); got != 1 {
		t.Fatalf("bucketreduce/count = %d", got)
	}
}

// TestObsGPUResetAtomicity: ResetPeak drops the peak to live and leaves the
// clocks, and the rebased peak then grows from live again.
func TestObsGPUResetAtomicity(t *testing.T) {
	g := NewGPU("g", GB)
	a, err := g.Alloc("x", 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Alloc("y", 50)
	if err != nil {
		t.Fatal(err)
	}
	b.Free()
	g.TransferH2D(1 << 20)
	g.AddComputeTime(5)

	g.ResetPeak()
	if st := g.Stats(); st.Peak != 100 || st.TransferTime == 0 || st.ComputeTime == 0 {
		t.Fatalf("ResetPeak should leave clocks alone: %+v", st)
	}
	g.TransferH2D(1 << 20)
	c, err := g.Alloc("z", 25)
	if err != nil {
		t.Fatal(err)
	}
	c.Free()
	if st := g.Stats(); st.Peak != 125 || st.Transferred != 2<<20 {
		t.Fatalf("rebased peak or clocks wrong: %+v", st)
	}
	a.Free()
}
