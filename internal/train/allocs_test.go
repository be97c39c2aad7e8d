package train

import (
	"testing"

	"buffalo/internal/device"
	"buffalo/internal/gnn"
)

// TestRunIterationWarmAllocs holds a warm sequential iteration's heap
// allocations to the counts measured when the ceilings were set, on the
// configurations of the root BenchmarkRunIteration_ObsDisabled (cora, mean, K
// fixed at 4 under 1 GB) and BenchmarkRunIteration_SequentialLSTM (cora, LSTM,
// K searched under 2 MB). Those benchmarks report 57 and 91 allocs/op with the
// cold first iteration amortized in, and the report gate allows them 5%, so
// one new allocation per iteration (57 → 58) passes it; this test fails on
// it. A count below a ceiling passes: lower the ceiling in the change that
// earns it.
func TestRunIterationWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	ds := loadData(t, "cora")
	cases := []struct {
		name   string
		agg    gnn.Aggregator
		inDim  int
		batch  int
		budget int64
		micro  int
		max    float64
	}{
		{"mean", gnn.Mean, ds.FeatDim(), 256, device.GB, 4, 41},
		{"lstm", gnn.LSTM, 64, 128, 2 * device.MB, 0, 61},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSession(ds, Config{
				System: Buffalo,
				Model: gnn.Config{Arch: gnn.SAGE, Aggregator: tc.agg, Layers: 2,
					InDim: tc.inDim, Hidden: 16, OutDim: ds.NumClasses, Seed: 1},
				Fanouts:      []int{5, 5},
				BatchSize:    tc.batch,
				MemBudget:    tc.budget,
				MicroBatches: tc.micro,
				Seed:         7,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 3; i++ {
				if _, err := s.RunIteration(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, iterErr := s.RunIteration(); iterErr != nil && err == nil {
					err = iterErr
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs > tc.max {
				t.Errorf("warm iteration allocates %v times, ceiling %v", allocs, tc.max)
			} else if allocs < tc.max {
				t.Logf("warm iteration allocates %v times, below its ceiling %v: lower the ceiling", allocs, tc.max)
			}
		})
	}
}
