package train

import (
	"testing"
)

// TestZeRO1LossBitIdentical: the reduce-scatter → per-shard step → all-gather
// path performs exactly the all-reduce path's float operations — same bucket
// accumulation with the same replica order, and n shard Adam steps that tile
// the flat buffer elementwise-identically to one full-range step. Losses are
// therefore exactly equal at every replica count, with and without overlap
// and at any bucket size.
func TestZeRO1LossBitIdentical(t *testing.T) {
	ds := loadData(t, "cora")
	base := baseConfig(ds, Buffalo)
	base.MicroBatches = 4
	const iters = 3
	for _, gpus := range []int{1, 2, 4} {
		ref, err := NewDataParallel(ds, base, gpus)
		if err != nil {
			t.Fatal(err)
		}
		refLoss := make([]float32, iters)
		for i := 0; i < iters; i++ {
			r, err := ref.RunIteration()
			if err != nil {
				t.Fatal(err)
			}
			refLoss[i] = r.Loss
		}
		ref.Close()

		variants := []struct {
			name string
			mut  func(*Config)
		}{
			{"zero1", func(c *Config) { c.ZeRO1 = true }},
			{"zero1+overlap", func(c *Config) { c.ZeRO1 = true; c.CommOverlap = true }},
			{"zero1+overlap+tiny-buckets", func(c *Config) {
				c.ZeRO1 = true
				c.CommOverlap = true
				c.BucketBytes = 1
			}},
		}
		for _, v := range variants {
			cfg := base
			v.mut(&cfg)
			dp, err := NewDataParallel(ds, cfg, gpus)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < iters; i++ {
				r, err := dp.RunIteration()
				if err != nil {
					t.Fatal(err)
				}
				if r.Loss != refLoss[i] {
					t.Fatalf("gpus=%d %s iteration %d: loss %v != all-reduce reference %v",
						gpus, v.name, i, r.Loss, refLoss[i])
				}
				if r.ExposedComm+r.HiddenComm != r.Phases.Communication {
					t.Fatalf("gpus=%d %s iteration %d: exposed %v + hidden %v != comm busy %v",
						gpus, v.name, i, r.ExposedComm, r.HiddenComm, r.Phases.Communication)
				}
				if gpus == 1 && r.Phases.Communication != 0 {
					t.Fatalf("gpus=1 %s: single replica must not communicate, got %v", v.name, r.Phases.Communication)
				}
				if gpus > 1 && r.ExposedComm <= 0 {
					t.Fatalf("gpus=%d %s iteration %d: the closing all-gather is fully exposed; ExposedComm must be positive, got %v",
						gpus, v.name, i, r.ExposedComm)
				}
			}
			dp.Close()
		}
	}
}

// TestZeRO1ShardedCollectiveAccounting: under the sharded combine the comm
// clock decomposes into the per-bucket reduce-scatters plus one all-gather
// per iteration, and the cluster's collective breakdown counts them.
func TestZeRO1ShardedCollectiveAccounting(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	cfg.MicroBatches = 4
	cfg.ZeRO1 = true
	cfg.CommOverlap = true
	const gpus, iters = 2, 3
	dp, err := NewDataParallel(ds, cfg, gpus)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	buckets := dp.eng.flat0.Buckets()
	var wantBusy int64
	for i := 0; i < iters; i++ {
		r, err := dp.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		var iterBusy int64
		for _, b := range buckets {
			iterBusy += int64(dp.Cluster.ReduceScatterDuration(b.Bytes))
		}
		iterBusy += int64(dp.Cluster.AllGatherDuration(dp.eng.replicas[0].model.Params.ValueBytes()))
		if int64(r.Phases.Communication) != iterBusy {
			t.Fatalf("iteration %d: Communication %v, want RS buckets + AG = %v", i, r.Phases.Communication, iterBusy)
		}
		wantBusy += iterBusy
	}
	bd := dp.Cluster.Collectives()
	if bd.ReduceScatterCount != int64(iters*len(buckets)) {
		t.Fatalf("reduce-scatter count %d, want %d (%d buckets x %d iterations)",
			bd.ReduceScatterCount, iters*len(buckets), len(buckets), iters)
	}
	if bd.AllGatherCount != iters {
		t.Fatalf("all-gather count %d, want %d", bd.AllGatherCount, iters)
	}
	if got := int64(bd.ReduceScatterTime + bd.AllGatherTime); got != wantBusy {
		t.Fatalf("collective breakdown time %d, want %d", got, wantBusy)
	}
	if int64(dp.Cluster.CommTime()) != wantBusy {
		t.Fatalf("comm clock %v, want %d (sharded run books no all-reduces)", dp.Cluster.CommTime(), wantBusy)
	}
}

// TestZeRO1LedgerDrop: optimizer-state sharding drops each replica's fixed
// footprint by exactly 3·(valueBytes - shardBytes) — asymptotically (n-1)/n
// of the optimizer+gradient bytes — and the drop is visible on the device
// ledger at construction time.
func TestZeRO1LedgerDrop(t *testing.T) {
	ds := loadData(t, "cora")
	base := baseConfig(ds, Buffalo)
	const gpus = 4
	ref, err := NewDataParallel(ds, base, gpus)
	if err != nil {
		t.Fatal(err)
	}
	refLive := ref.Stats()[0].Live
	valueBytes := ref.eng.replicas[0].model.Params.ValueBytes()
	ref.Close()

	cfg := base
	cfg.ZeRO1 = true
	dp, err := NewDataParallel(ds, cfg, gpus)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	shard := dp.eng.flat0.ShardBytes()
	for i := 0; i < gpus; i++ {
		live := dp.Stats()[i].Live
		wantDrop := 3 * (valueBytes - shard)
		if refLive-live != wantDrop {
			t.Fatalf("replica %d: fixed footprint dropped %d bytes, want exactly %d", i, refLive-live, wantDrop)
		}
	}
	// Sanity on the headline claim: the drop approaches (n-1)/n of the
	// optimizer+gradient bytes (3x the values); shard padding keeps it just
	// under the ideal.
	optGrad := 3 * valueBytes
	drop := 3 * (valueBytes - shard)
	ideal := optGrad * (gpus - 1) / gpus
	if drop > ideal {
		t.Fatalf("drop %d exceeds the ideal (n-1)/n bound %d", drop, ideal)
	}
	if float64(drop) < 0.95*float64(ideal) {
		t.Fatalf("drop %d is not within 5%% of the ideal %d — padding should be marginal", drop, ideal)
	}
}
