package train

import (
	"testing"
	"time"

	"buffalo/internal/obs"
)

// TestObsPhasesAddAccumulation checks the Phases arithmetic used by every
// multi-iteration report: accumulating iterations with Add keeps Total equal
// to the sum of the parts, component by component.
func TestObsPhasesAddAccumulation(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	cfg.MicroBatches = 2
	s, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var acc Phases
	var wantTotal time.Duration
	for i := 0; i < 3; i++ {
		res, err := s.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		if res.Phases.Total() != res.Phases.Scheduling+res.Phases.REGConstruction+
			res.Phases.MetisPartition+res.Phases.ConnectionCheck+res.Phases.BlockGen+
			res.Phases.DataLoading+res.Phases.GPUCompute+res.Phases.Communication {
			t.Fatalf("iteration %d: Total() is not the sum of its components: %+v", i, res.Phases)
		}
		acc.Add(res.Phases)
		wantTotal += res.Phases.Total()
	}
	if acc.Total() != wantTotal {
		t.Fatalf("accumulated Total() = %v, want the summed per-iteration totals %v", acc.Total(), wantTotal)
	}
}

// sumDurs sums the span durations of one kind across a trace.
func sumDurs(events []obs.Event, kind obs.Kind) time.Duration {
	var total time.Duration
	for _, e := range events {
		if e.Kind == kind {
			total += e.Dur
		}
	}
	return total
}

// TestObsPhaseTotalsMatchSpanDurations is the coherence contract between the
// Fig 11 phase breakdown and the trace: spans are recorded with the same
// measured durations accumulated into Phases, so per-kind span sums equal
// the phase totals exactly — not approximately.
func TestObsPhaseTotalsMatchSpanDurations(t *testing.T) {
	ds := loadData(t, "cora")
	tr := obs.NewTrace()
	rec := obs.NewRecorder(tr, obs.NewMetrics())
	cfg := baseConfig(ds, Buffalo)
	cfg.MicroBatches = 3 // force a multi-micro-batch iteration
	cfg.Obs = rec
	s, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	b, err := s.SampleBatch()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunIterationOn(b)
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 2 {
		t.Fatalf("want a multi-micro-batch run, got K=%d", res.K)
	}

	events := tr.Events()
	if got := sumDurs(events, obs.KindPlan); got != res.Phases.Scheduling {
		t.Errorf("plan span sum %v != Scheduling phase %v", got, res.Phases.Scheduling)
	}
	if got := sumDurs(events, obs.KindBlockGen); got != res.Phases.BlockGen {
		t.Errorf("blockgen span sum %v != BlockGen phase %v", got, res.Phases.BlockGen)
	}
	compute := sumDurs(events, obs.KindForward) + sumDurs(events, obs.KindBackward) +
		sumDurs(events, obs.KindOptStep)
	if compute != res.Phases.GPUCompute {
		t.Errorf("forward+backward+optstep span sum %v != GPUCompute phase %v", compute, res.Phases.GPUCompute)
	}
	// The device clock records the same scaled durations as its own spans.
	if got := sumDurs(events, obs.KindCompute); got != res.Phases.GPUCompute {
		t.Errorf("device compute span sum %v != GPUCompute phase %v", got, res.Phases.GPUCompute)
	}
	if got := sumDurs(events, obs.KindTransferH2D); got != res.Phases.DataLoading {
		t.Errorf("h2d span sum %v != DataLoading phase %v", got, res.Phases.DataLoading)
	}

	// Per-micro-batch spans: one per executed micro-batch, footprints
	// matching the result's load-balance data.
	var mbCount int
	for _, e := range events {
		if e.Kind == obs.KindMicroBatch {
			if e.Bytes != res.PerMicroBytes[e.Aux] {
				t.Errorf("micro-batch %d span bytes %d != PerMicroBytes %d", e.Aux, e.Bytes, res.PerMicroBytes[e.Aux])
			}
			mbCount++
		}
	}
	if mbCount != res.K {
		t.Errorf("%d micro-batch spans for K=%d", mbCount, res.K)
	}

	// Acceptance: the timeline reconstructor replays the iteration's ledger
	// events to exactly the ledger's peak, and the scheduler's prediction is
	// recorded against it.
	tl := obs.Reconstruct(events, s.GPU.Name())
	if tl.Peak != s.GPU.Stats().Peak || tl.Peak != res.Peak {
		t.Fatalf("timeline peak %d, ledger peak %d, result peak %d — want all equal",
			tl.Peak, s.GPU.Stats().Peak, res.Peak)
	}
	if res.PredictedPeak <= 0 {
		t.Fatal("buffalo iteration did not record a predicted peak")
	}
	if n := rec.Metrics().Histogram("estimate/error_bp", obs.BasisPointBuckets).Count(); n != 1 {
		t.Fatalf("estimate/error_bp has %d observations, want 1", n)
	}
}

// TestObsStageCarryMarks: sequential staging marks every staged micro-batch
// with the input bytes it found resident on its device ("stage/resident"),
// so over an iteration the resident bytes plus the H2D bytes add up to every
// micro-batch's input rows, on one replica and on two.
func TestObsStageCarryMarks(t *testing.T) {
	ds := loadData(t, "cora")
	for _, gpus := range []int{1, 2} {
		tr := obs.NewTrace()
		cfg := baseConfig(ds, Buffalo)
		cfg.MicroBatches = 4
		cfg.Obs = obs.NewRecorder(tr, nil)
		e, _ := testEngine(t, ds, cfg, gpus)
		it := planNext(t, e)
		var feat int64
		for _, mb := range it.mbs {
			feat += e.featBytes(mb)
		}
		if _, err := e.executeIteration(it, seqStager{e}, false); err != nil {
			t.Fatal(err)
		}
		var marks int
		var found, copied int64
		for _, ev := range tr.Events() {
			switch {
			case ev.Kind == obs.KindMark && ev.Name == "stage/resident":
				marks++
				found += ev.Bytes
			case ev.Kind == obs.KindTransferH2D:
				copied += ev.Bytes
			}
		}
		if marks != len(it.mbs) || found == 0 || found+copied != feat {
			t.Fatalf("%d GPUs: %d stage/resident marks for K=%d, found %d + copied %d bytes, want the %d input bytes",
				gpus, marks, len(it.mbs), found, copied, feat)
		}
	}
}
