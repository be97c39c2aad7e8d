package train

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"sync"
	"testing"

	"buffalo/internal/device"
	"buffalo/internal/graph"
)

// featureHash is an FNV-64a digest of every feature value's bits.
func featureHash(features []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range features {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestFeatureTableReadOnly: layer 0 reads the dataset's features in place, so
// the engine's table must alias Dataset.Features at full width, and no
// execution path may write through it. Every golden mode — sequential with
// Evaluate, pipelined with a cache, 2-GPU ZeRO-1, cached Infer — runs over the
// full-width cora models, and the features hash the same before and after.
// The plain build runs the vector kernels, whose stores the race detector
// cannot see, so this is the test that covers them; under -race it skips
// (TestSharedTableConcurrentReaders is the race-side check).
func TestFeatureTableReadOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("serial numerical test; the race-side check is TestSharedTableConcurrentReaders")
	}
	ds := loadData(t, "cora")
	before := featureHash(ds.Features)
	for _, m := range goldenModels {
		if m.ds != "cora" || m.inDim != 0 {
			continue
		}
		cfg := goldenConfig(ds, m)
		s, err := NewSession(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if &s.eng.table.Data[0] != &ds.Features[0] || len(s.eng.table.Data) != len(ds.Features) {
			t.Fatalf("%s: the engine's feature table is not a view of Dataset.Features", m.name())
		}
		s.Close()
		for _, mode := range goldenModes {
			mode.run(t, ds, cfg, io.Discard)
			if h := featureHash(ds.Features); h != before {
				t.Fatalf("%s %s: Dataset.Features hash %016x after the run, %016x before", m.name(), mode.name, h, before)
			}
		}
	}
}

// TestSharedTableConcurrentReaders: a pipelined session (prefetcher and
// consumer goroutines) and an InferenceSession train and serve on one dataset
// at the same time, both reading its one feature table. Under -race this is
// the check that nothing writes the table; in any build, each side's results
// equal the ones it produces alone.
func TestSharedTableConcurrentReaders(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := goldenConfig(ds, goldenModels[0])
	cfg.MemBudget, cfg.MicroBatches = 4*cfg.MemBudget, 3
	nodes := goldenNodes(ds)
	const iters, requests = 3, 3

	train := func() []float32 {
		s, err := NewPipelinedSession(ds, cfg, PipelineConfig{Depth: 2, CacheBudget: device.MB / 2})
		if err != nil {
			t.Error(err)
			return nil
		}
		defer s.Close()
		var losses []float32
		for i := 0; i < iters; i++ {
			r, err := s.RunIteration()
			if err != nil {
				t.Error(err)
				return nil
			}
			losses = append(losses, r.Loss)
		}
		return losses
	}
	serve := func() []map[graph.NodeID]int32 {
		s, err := NewInferenceSession(ds, cfg, device.MB/2)
		if err != nil {
			t.Error(err)
			return nil
		}
		defer s.Close()
		var classes []map[graph.NodeID]int32
		for i := 0; i < requests; i++ {
			r, err := s.Infer(nodes)
			if err != nil {
				t.Error(err)
				return nil
			}
			classes = append(classes, r.Classes)
		}
		return classes
	}

	wantLosses, wantClasses := train(), serve()
	var gotLosses []float32
	var gotClasses []map[graph.NodeID]int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gotLosses = train() }()
	go func() { defer wg.Done(); gotClasses = serve() }()
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, w := range wantLosses {
		if math.Float32bits(gotLosses[i]) != math.Float32bits(w) {
			t.Errorf("iteration %d: loss %v beside a serving session, %v alone", i, gotLosses[i], w)
		}
	}
	for i, w := range wantClasses {
		for v, c := range w {
			if gotClasses[i][v] != c {
				t.Errorf("request %d node %d: class %d beside a training session, %d alone", i, v, gotClasses[i][v], c)
			}
		}
	}
}
