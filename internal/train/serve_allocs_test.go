package train_test

import (
	"context"
	"testing"

	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/graph"
	"buffalo/internal/obs"
	"buffalo/internal/serve"
	"buffalo/internal/train"
)

// TestServeRequestWarmAllocs is TestRunIterationWarmAllocs for the serving
// path, on the configuration of the root BenchmarkServeRequest: a serve.Server
// at BatchSize 1 over a cora inference session with a metrics registry, so
// every request runs intake → batcher → admission → executor alone. It lives
// in the external test package because serve imports train.
func TestServeRequestWarmAllocs(t *testing.T) {
	if train.RaceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	const max = 11
	ds, err := datagen.Load("cora", 3)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := train.NewInferenceSession(ds, train.Config{
		System: train.Buffalo,
		Model: gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2,
			InDim: ds.FeatDim(), Hidden: 16, OutDim: ds.NumClasses, Seed: 1},
		Fanouts:   []int{5, 5},
		BatchSize: 256,
		MemBudget: device.GB,
		Seed:      7,
		Obs:       obs.NewRecorder(nil, obs.NewMetrics()),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv, err := serve.NewServer(sess, serve.Config{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	node := 0
	infer := func() {
		if _, inferErr := srv.Infer(ctx, graph.NodeID(node%ds.Graph.NumNodes())); inferErr != nil && err == nil {
			err = inferErr
		}
		node++
	}
	for i := 0; i < 20; i++ {
		infer()
	}
	allocs := testing.AllocsPerRun(100, infer)
	if err != nil {
		t.Fatal(err)
	}
	if allocs > max {
		t.Errorf("warm request allocates %v times, ceiling %v", allocs, max)
	} else if allocs < max {
		t.Logf("warm request allocates %v times, below its ceiling %v: lower the ceiling", allocs, max)
	}
}
