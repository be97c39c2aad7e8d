package betty_test

import (
	"errors"
	"testing"

	"buffalo/internal/baseline/betty"
	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/memest"
	"buffalo/internal/schedule"
	"buffalo/internal/train"
)

// TestFindPlan: Betty's K search, which the training engine runs when
// MicroBatches is 0. Pricing each part with EstimatePart against the
// activation budget (device capacity less the resident model), the kept K
// is the smallest whose every part fits: its parts are the ones Partition
// returns at that K, priced as the result reports, and some part at K−1
// does not fit. A zero budget is refused as invalid, not as infeasible; a
// 1-byte activation budget wraps schedule.ErrInfeasible.
func TestFindPlan(t *testing.T) {
	ds, err := datagen.Load("ogbn-arxiv", 3)
	if err != nil {
		t.Fatal(err)
	}
	model := gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2,
		InDim: ds.FeatDim(), Hidden: 32, OutDim: ds.NumClasses, Seed: 1}
	cfg := train.Config{System: train.Betty, Model: model, Fanouts: []int{10, 25},
		BatchSize: 512, MemBudget: 12 * device.MB, Seed: 7}
	s, err := train.NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resident := s.GPU.Live()
	budget := s.GPU.Capacity() - resident
	b, err := s.SampleBatch()
	if err != nil {
		t.Fatal(err)
	}
	est, err := memest.New(memest.SpecFromConfig(model),
		memest.ProfileBatch(b, memest.ClampC(ds.Graph.ApproxClusteringCoefficient(cfg.Seed, 2000))))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunIterationOn(b)
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 2 || len(res.PerMicroEstimate) != res.K {
		t.Fatalf("K %d with %d estimates, want K >= 2 and one estimate per part", res.K, len(res.PerMicroEstimate))
	}
	// maxPrice is the largest Betty estimate among b's parts at k.
	maxPrice := func(k int) int64 {
		plan, err := betty.Partition(b, k, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		var hi int64
		for i, part := range plan.Parts {
			m := betty.EstimatePart(b, est, part)
			if k == res.K && m != res.PerMicroEstimate[i] {
				t.Fatalf("part %d estimated %d, result reports %d", i, m, res.PerMicroEstimate[i])
			}
			hi = max(hi, m)
		}
		return hi
	}
	if m := maxPrice(res.K); m > budget {
		t.Errorf("kept K %d has a part estimated %d over the budget %d", res.K, m, budget)
	}
	if m := maxPrice(res.K - 1); m <= budget {
		t.Errorf("K %d already fits (largest part %d, budget %d), but the search kept K %d", res.K-1, m, budget, res.K)
	}

	zero := cfg
	zero.MemBudget = 0
	if _, err := train.NewSession(ds, zero); err == nil || errors.Is(err, schedule.ErrInfeasible) {
		t.Errorf("zero budget: got %v, want an invalid-budget error", err)
	}
	// Nothing fits 1 byte, so the search walks every K; a 64-output batch
	// keeps that walk short.
	tiny := cfg
	tiny.BatchSize = 64
	tiny.MemBudget = resident + 1
	st, err := train.NewSession(ds, tiny)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.RunIteration(); !errors.Is(err, schedule.ErrInfeasible) {
		t.Errorf("1-byte budget: got %v, want schedule.ErrInfeasible", err)
	}
}
