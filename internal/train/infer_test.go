package train

import (
	"testing"

	"buffalo/internal/bucket"
	"buffalo/internal/device"
	"buffalo/internal/graph"
	"buffalo/internal/memest"
	"buffalo/internal/sampling"
)

func TestInferenceFixedFootprintSmallerThanTraining(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)

	sess, err := NewInferenceSession(ds, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	inferLive := sess.GPU.Live()

	ts, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	trainLive := ts.GPU.Live()

	if inferLive >= trainLive {
		t.Errorf("inference fixed footprint %d should be below training's %d (no grads/optimizer)",
			inferLive, trainLive)
	}
	if want := sess.Model.Params.ValueBytes(); inferLive != want {
		t.Errorf("inference footprint = %d, want parameter values only (%d)", inferLive, want)
	}
}

func TestForwardOnlyEstimateNotAboveTraining(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	sess, err := NewInferenceSession(ds, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	b := &sampling.Batch{}
	if err := sess.eng.stream.NextInto(b); err != nil {
		t.Fatal(err)
	}
	est := &memest.Estimator{}
	if err := sess.eng.estimatorInto(est, b); err != nil {
		t.Fatal(err)
	}
	for _, bu := range bucket.Bucketize(b).Buckets {
		training := est.BucketMem(bu.Volume(), bu.Degree)
		est.ForwardOnly = true
		forward := est.BucketMem(bu.Volume(), bu.Degree)
		est.ForwardOnly = false
		if forward > training {
			t.Fatalf("degree %d: ForwardOnly estimate %d exceeds training estimate %d",
				bu.Degree, forward, training)
		}
		if forward <= 0 {
			t.Fatalf("degree %d: ForwardOnly estimate %d not positive", bu.Degree, forward)
		}
	}
}

func TestInferClassesAndEstimate(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	sess, err := NewInferenceSession(ds, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Duplicates collapse; every distinct node gets a class.
	nodes := []graph.NodeID{3, 17, 3, 42, 17, 99}
	res, err := sess.Infer(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range nodes {
		cls, ok := res.Classes[v]
		if !ok {
			t.Fatalf("node %d missing from Classes", v)
		}
		if cls < 0 || int(cls) >= ds.NumClasses {
			t.Fatalf("node %d: class %d out of range [0,%d)", v, cls, ds.NumClasses)
		}
	}
	if len(res.Classes) != 4 {
		t.Errorf("Classes has %d entries, want 4 distinct", len(res.Classes))
	}
	if res.K < 1 {
		t.Errorf("K = %d, want >= 1", res.K)
	}
	if res.Peak <= 0 || res.PredictedPeak <= 0 {
		t.Fatalf("peaks not positive: actual %d predicted %d", res.Peak, res.PredictedPeak)
	}
	// The ForwardOnly estimator prices the executor's exact free-then-alloc
	// schedule; the prediction should be within the estimator's usual band.
	diff := res.Peak - res.PredictedPeak
	if diff < 0 {
		diff = -diff
	}
	if diff*4 > res.PredictedPeak {
		t.Errorf("estimate off by >25%%: actual %d vs predicted %d", res.Peak, res.PredictedPeak)
	}
}

func TestInferLedgerCleanAfterClose(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	sess, err := NewInferenceSession(ds, cfg, device.MB/2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Infer([]graph.NodeID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	fixed := sess.Model.Params.ValueBytes() + sess.CacheBudget()
	if live := sess.GPU.Live(); live != fixed {
		t.Errorf("after Infer: live %d, want fixed footprint %d (all transients freed)", live, fixed)
	}
	sess.Close()
	if live := sess.GPU.Live(); live != 0 {
		t.Errorf("after Close: live %d, want 0", live)
	}
}

func TestInferCacheAbsorbsRepeatTraffic(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	sess, err := NewInferenceSession(ds, cfg, 4*device.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	nodes := []graph.NodeID{5, 6, 7, 8}
	if _, err := sess.Infer(nodes); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Infer(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Error("second identical batch produced zero cache hits")
	}
}
