package train

import (
	"errors"
	"math/rand"
	"testing"

	"buffalo/internal/block"
	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/graph"
)

// testEngine builds the engine of a sequential Session (gpus = 1) or
// DataParallel run over cfg, closed when the test ends.
func testEngine(t *testing.T, ds *datagen.Dataset, cfg Config, gpus int) *engine {
	t.Helper()
	if gpus == 1 {
		s, err := NewSession(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s.eng
	}
	dp, err := NewDataParallel(ds, cfg, gpus)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Close)
	return dp.eng
}

// residents reads each replica's live bytes: between iterations, its
// resident footprint.
func residents(e *engine) []int64 {
	live := make([]int64, len(e.replicas))
	for d, r := range e.replicas {
		live[d] = r.gpu.Live()
	}
	return live
}

// planNext samples and plans e's next batch.
func planNext(t *testing.T, e *engine) *pipeIter {
	t.Helper()
	sc := e.getIterScratch()
	if err := e.sample(e.stream, &sc.batch); err != nil {
		t.Fatal(err)
	}
	it, err := e.planIteration(sc, &sc.batch)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// inputIter is a planned iteration whose micro-batches have the given input
// lists and nothing else: all a stager reads.
func inputIter(lists [][]graph.NodeID) *pipeIter {
	it := &pipeIter{mbs: make([]*block.MicroBatch, len(lists))}
	for i, l := range lists {
		it.mbs[i] = &block.MicroBatch{Blocks: []*block.Block{{Src: l}}}
	}
	return it
}

// randomInputs draws k lists of distinct nodes from [0, span): small spans
// make neighbours share most of their rows.
func randomInputs(rng *rand.Rand, k, span int) [][]graph.NodeID {
	lists := make([][]graph.NodeID, k)
	for i := range lists {
		perm := rng.Perm(span)
		l := make([]graph.NodeID, 1+rng.Intn(span))
		for j := range l {
			l[j] = graph.NodeID(perm[j])
		}
		lists[i] = l
	}
	return lists
}

// sharedOracle is sharedRows over maps.
func sharedOracle(prev, next []graph.NodeID) int64 {
	in := map[graph.NodeID]bool{}
	for _, v := range prev {
		in[v] = true
	}
	var n int64
	for _, v := range next {
		if in[v] {
			n++
		}
	}
	return n
}

// TestSeqStagerCopiesOnlyUncarriedRows drives the sequential stager over
// random input lists on 1 and 2 replicas: each micro-batch copies exactly
// the rows the previous one on its replica (i-n) did not list, per a map-set
// oracle; a micro-batch with nothing fresh makes no copy and so pays no
// latency; while a micro-batch computes its replica holds its full input
// rows, and once the iteration is released only the resident footprint.
func TestSeqStagerCopiesOnlyUncarriedRows(t *testing.T) {
	ds := loadData(t, "cora")
	rng := rand.New(rand.NewSource(38))
	for _, n := range []int{1, 2} {
		e := testEngine(t, ds, baseConfig(ds, Buffalo), n)
		resident := residents(e)
		cases := [][][]graph.NodeID{
			randomInputs(rng, 1, 50),                             // K = 1: nothing to carry
			{{1, 2, 3, 4}, {4, 3}, {3, 4, 2, 1}, {2, 9}, {9, 2}}, // successors fully shared
		}
		for k := 2; k <= 9; k++ {
			cases = append(cases, randomInputs(rng, k, 40+rng.Intn(200)))
		}
		var carried int
		for c, lists := range cases {
			it := inputIter(lists)
			for i, in := range lists {
				fresh := int64(len(in))
				if i >= n {
					fresh -= sharedOracle(lists[i-n], in)
				}
				gpu := e.replicas[i%n].gpu
				pre := gpu.Stats()
				smb, err := seqStager{e}.stage(it, i)
				if err != nil {
					t.Fatal(err)
				}
				st := gpu.Stats()
				if got := st.Transferred - pre.Transferred; got != fresh*e.rowBytes {
					t.Fatalf("n=%d case %d mb %d: copied %d bytes, want %d fresh rows = %d",
						n, c, i, got, fresh, fresh*e.rowBytes)
				}
				if copied := st.TransferTime > pre.TransferTime; copied != (fresh > 0) {
					t.Fatalf("n=%d case %d mb %d: copy made = %v with %d fresh rows", n, c, i, copied, fresh)
				}
				if live := gpu.Live(); live != resident[i%n]+e.featBytes(smb.mb) {
					t.Fatalf("n=%d case %d mb %d: live %d while computing, want resident %d + %d input bytes",
						n, c, i, live, resident[i%n], e.featBytes(smb.mb))
				}
				if smb.carryIn != nil {
					carried++
				}
				seqStager{e}.release(smb, true)
			}
			for d, r := range e.replicas {
				if live := r.gpu.Live(); live != resident[d] || e.carry[d] != nil {
					t.Fatalf("n=%d case %d: replica %d holds %d after the iteration, resident %d (carry %v)",
						n, c, d, live, resident[d], e.carry[d])
				}
			}
		}
		if carried == 0 {
			t.Fatalf("n=%d: no micro-batch was staged over a carry", n)
		}
	}
}

// squeezeStager is the sequential stager with another tenant on the device:
// around micro-batch at it takes the room left on that micro-batch's
// device — before staging (the fresh rows do not fit) or after (the first
// layer's activations do not fit) — and releases nothing itself.
type squeezeStager struct {
	seqStager
	at          int
	beforeStage bool
	block       *device.Allocation
	carryLive   bool // a carry was on some device when the squeeze came
}

func (s *squeezeStager) squeeze(gpu *device.GPU, leave int64) error {
	for _, c := range s.e.carry {
		s.carryLive = s.carryLive || c != nil
	}
	var err error
	s.block, err = gpu.Alloc("squeeze", gpu.Capacity()-gpu.Live()-leave)
	return err
}

func (s *squeezeStager) stage(it *pipeIter, i int) (*stagedMB, error) {
	gpu := s.e.replicas[i%len(s.e.replicas)].gpu
	if i == s.at && s.beforeStage {
		if err := s.squeeze(gpu, 1); err != nil {
			return nil, err
		}
	}
	smb, err := s.seqStager.stage(it, i)
	if err == nil && i == s.at && !s.beforeStage {
		s.carryLive = s.carryLive || smb.carryIn != nil
		if err := s.squeeze(gpu, 0); err != nil {
			return nil, err
		}
	}
	return smb, err
}

// TestCarryLedgerUnderOOM runs Buffalo at a fixed K on 1 and 2 replicas:
// after every successful iteration each device holds exactly its resident
// footprint, and an iteration that runs out of memory at micro-batch n (the
// first one on replica 0 with a carry) while a carry is live leaves the
// same, whether the fresh rows or the activations are refused.
func TestCarryLedgerUnderOOM(t *testing.T) {
	ds := loadData(t, "cora")
	for _, gpus := range []int{1, 2} {
		for _, beforeStage := range []bool{true, false} {
			cfg := baseConfig(ds, Buffalo)
			cfg.MicroBatches = 3 * gpus
			e := testEngine(t, ds, cfg, gpus)
			resident := residents(e)
			var gpuList []*device.GPU
			for _, r := range e.replicas {
				gpuList = append(gpuList, r.gpu)
			}
			settled := func(when string, extra int64) {
				t.Helper()
				for d, r := range e.replicas {
					if l := r.gpu.Live(); l != resident[d]+extra || e.carry[d] != nil {
						t.Fatalf("%d GPUs, %s: replica %d holds %d, want resident %d + %d (carry %v)",
							gpus, when, d, l, resident[d], extra, e.carry[d])
					}
					extra = 0 // the squeeze sits on replica 0
				}
			}
			for i := 0; i < 3; i++ {
				it := planNext(t, e)
				var feat int64
				for _, mb := range it.mbs {
					feat += e.featBytes(mb)
				}
				pre := transferred(gpuList...)
				if _, err := e.executeIteration(it, seqStager{e}, false); err != nil {
					t.Fatal(err)
				}
				if h2d := transferred(gpuList...) - pre; len(it.mbs) != cfg.MicroBatches || h2d >= feat {
					t.Fatalf("%d GPUs: K = %d, copied %d of %d input bytes: want K = %d and a carry",
						gpus, len(it.mbs), h2d, feat, cfg.MicroBatches)
				}
				settled("after a successful iteration", 0)
			}

			sq := &squeezeStager{seqStager: seqStager{e}, at: gpus, beforeStage: beforeStage}
			_, err := e.executeIteration(planNext(t, e), sq, false)
			tag := "activations/layer0"
			if beforeStage {
				tag = "features"
			}
			var oom *device.OOMError
			if !errors.As(err, &oom) || oom.Tag != tag {
				t.Fatalf("%d GPUs: want OOM charging %q at micro-batch %d, got %v", gpus, tag, sq.at, err)
			}
			if !sq.carryLive {
				t.Fatalf("%d GPUs: no carry was live when micro-batch %d failed", gpus, sq.at)
			}
			settled("after the OOM", sq.block.Bytes)
			sq.block.Free()
		}
	}
}
