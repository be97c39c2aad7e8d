package train

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"buffalo/internal/block"
	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/graph"
)

// testEngine builds the engine of a sequential Session (gpus = 1) or
// DataParallel run over cfg and returns it with the run's Close, which also
// runs when the test ends.
func testEngine(t *testing.T, ds *datagen.Dataset, cfg Config, gpus int) (*engine, func()) {
	t.Helper()
	if gpus == 1 {
		s, err := NewSession(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s.eng, s.Close
	}
	dp, err := NewDataParallel(ds, cfg, gpus)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Close)
	return dp.eng, dp.Close
}

// residents reads each replica's live bytes: before the first iteration,
// its resident footprint.
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

// sharedOracle is sharedRows over maps (prev nil: nothing carried).
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

// pendingSettled fails unless every replica holds its resident footprint
// plus the pending carry of the input list last[d] its last micro-batch ran
// (none when nil), and the engine's carry says the same.
func pendingSettled(t *testing.T, e *engine, resident []int64, last [][]graph.NodeID, when string) {
	t.Helper()
	for d, r := range e.replicas {
		pending := int64(len(last[d])) * e.rowBytes
		var carried int64
		if c := e.carry[d]; c != nil {
			carried = c.Bytes
		}
		if live := r.gpu.Live(); live != resident[d]+pending || carried != pending {
			t.Fatalf("%s: replica %d holds %d with a %d-byte carry, want resident %d + pending %d",
				when, d, live, carried, resident[d], pending)
		}
	}
}

// closedSettled fails unless close leaves nothing on any replica.
func closedSettled(t *testing.T, e *engine, close func(), when string) {
	t.Helper()
	close()
	for d, r := range e.replicas {
		if live := r.gpu.Live(); live != 0 || e.carry[d] != nil {
			t.Fatalf("%s: replica %d holds %d after Close (carry %v)", when, d, live, e.carry[d])
		}
	}
}

// TestSeqStagerCopiesOnlyUncarriedRows drives the sequential stager over
// random input lists on 1 and 2 replicas, each list set one iteration: each
// micro-batch copies exactly the rows the previous one on its replica did
// not list, per a map-set oracle — i-n within an iteration, the replica's
// last one of the previous iteration for its first — and a replica that
// runs nothing in an iteration carries nothing out of it; a micro-batch
// with nothing fresh makes no copy and so pays no latency; while a
// micro-batch computes its replica holds its full input rows, after an
// iteration its resident footprint plus the pending carry of its last
// micro-batch's rows, and after Close nothing.
func TestSeqStagerCopiesOnlyUncarriedRows(t *testing.T) {
	ds := loadData(t, "cora")
	rng := rand.New(rand.NewSource(38))
	for _, n := range []int{1, 2} {
		e, closeRun := testEngine(t, ds, baseConfig(ds, Buffalo), n)
		resident := residents(e)
		cases := [][][]graph.NodeID{
			randomInputs(rng, 1, 50),                             // K = 1: replica 1 runs nothing
			{{1, 2, 3, 4}, {4, 3}, {3, 4, 2, 1}, {2, 9}, {9, 2}}, // successors fully shared
			{{9, 2}, {2, 9, 5}},                                  // first micro-batches fully carried in
			{{2, 9, 7}},                                          // replica 1's pending carry freed unused
		}
		for k := 2; k <= 9; k++ {
			cases = append(cases, randomInputs(rng, k, 40+rng.Intn(200)))
		}
		last := make([][]graph.NodeID, n) // each replica's last input list, nil when none
		var carried, crossed int
		for c, lists := range cases {
			it := inputIter(lists)
			seqStager{e}.begin(it)
			for i, in := range lists {
				prev := last[i%n]
				if i >= n {
					prev = lists[i-n]
				}
				fresh := int64(len(in)) - sharedOracle(prev, in)
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
					if i < n {
						crossed++
					}
				}
				seqStager{e}.release(smb, true)
			}
			for d := range last {
				last[d] = nil
			}
			for i, in := range lists {
				last[i%n] = in
			}
			pendingSettled(t, e, resident, last, fmt.Sprintf("n=%d case %d", n, c))
		}
		if carried == 0 || crossed == 0 {
			t.Fatalf("n=%d: %d micro-batches staged over a carry, %d of them across iterations: want both > 0",
				n, carried, crossed)
		}
		closedSettled(t, e, closeRun, fmt.Sprintf("n=%d", n))
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

// lastInputs copies, per replica, the input list of the last micro-batch it
// ran in it (nil when it ran none): what its pending carry holds.
func lastInputs(it *pipeIter, n int) [][]graph.NodeID {
	last := make([][]graph.NodeID, n)
	for i, mb := range it.mbs {
		last[i%n] = slices.Clone(mb.InputNodes())
	}
	return last
}

// TestCarryLedgerUnderOOM runs Buffalo at a fixed K on 1 and 2 replicas:
// after every successful iteration each device holds exactly its resident
// footprint plus the pending carry of its last micro-batch's rows; an
// iteration that runs out of memory at micro-batch n (replica 0's second)
// while a carry is live leaves only the resident footprint, whether the
// fresh rows or the activations are refused; and Close leaves nothing.
func TestCarryLedgerUnderOOM(t *testing.T) {
	ds := loadData(t, "cora")
	for _, gpus := range []int{1, 2} {
		for _, beforeStage := range []bool{true, false} {
			cfg := baseConfig(ds, Buffalo)
			cfg.MicroBatches = 3 * gpus
			e, closeRun := testEngine(t, ds, cfg, gpus)
			resident := residents(e)
			var gpuList []*device.GPU
			for _, r := range e.replicas {
				gpuList = append(gpuList, r.gpu)
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
				pendingSettled(t, e, resident, lastInputs(it, gpus),
					fmt.Sprintf("%d GPUs, after successful iteration %d", gpus, i))
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
			extra := sq.block.Bytes // the squeeze sits on replica 0
			for d, r := range e.replicas {
				if l := r.gpu.Live(); l != resident[d]+extra || e.carry[d] != nil {
					t.Fatalf("%d GPUs, after the OOM: replica %d holds %d, want resident %d + %d (carry %v)",
						gpus, d, l, resident[d], extra, e.carry[d])
				}
				extra = 0
			}
			sq.block.Free()
			closedSettled(t, e, closeRun, fmt.Sprintf("%d GPUs", gpus))
		}
	}
}

// copyStager is the sequential stager recording, per staged micro-batch, its
// input list and the bytes its stage copied.
type copyStager struct {
	seqStager
	inputs [][]graph.NodeID
	copied []int64
}

func (s *copyStager) stage(it *pipeIter, i int) (*stagedMB, error) {
	gpu := s.e.replicas[i%len(s.e.replicas)].gpu
	pre := gpu.Stats().Transferred
	smb, err := s.seqStager.stage(it, i)
	if err == nil {
		s.inputs = append(s.inputs, slices.Clone(smb.mb.InputNodes()))
		s.copied = append(s.copied, gpu.Stats().Transferred-pre)
	}
	return smb, err
}

// TestCarryCrossesIterations runs Buffalo on 1 and 2 replicas and Betty on
// one, each planning its K under a tight budget, next to a twin run that
// drops its carries after every iteration. Each iteration's K, predicted
// peak, ledger peak and loss bits equal the twin's: planning counts the
// pending carry as free. Each micro-batch copies exactly the rows the
// previous one on its replica did not list, per a map-set oracle that
// reaches into the previous iteration for the replica's first. Evaluate, an
// OOM with a carried-in carry live, and Close each leave every device at its
// resident footprint (nothing, after Close).
func TestCarryCrossesIterations(t *testing.T) {
	ds := loadData(t, "cora")
	for _, tc := range []struct {
		sys  System
		gpus int
	}{{Buffalo, 1}, {Buffalo, 2}, {Betty, 1}} {
		name := fmt.Sprintf("%s/%d GPUs", tc.sys, tc.gpus)
		cfg := goldenConfig(ds, goldenModels[0])
		cfg.System = tc.sys
		e, closeRun := testEngine(t, ds, cfg, tc.gpus)
		twin, _ := testEngine(t, ds, cfg, tc.gpus)
		resident := residents(e)
		last := make([][]graph.NodeID, tc.gpus)
		var crossed int64
		for iter := 0; iter < 4; iter++ {
			cs := &copyStager{seqStager: seqStager{e}}
			it := planNext(t, e)
			res, err := e.executeIteration(it, cs, false)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.executeIteration(planNext(t, twin), seqStager{twin}, false)
			if err != nil {
				t.Fatal(err)
			}
			twin.dropCarries()
			if res.K != want.K || res.PredictedPeak != want.PredictedPeak || res.Peak != want.Peak ||
				math.Float32bits(res.Loss) != math.Float32bits(want.Loss) {
				t.Fatalf("%s iteration %d: K %d pred %d peak %d loss %08x, twin without carries K %d pred %d peak %d loss %08x",
					name, iter, res.K, res.PredictedPeak, res.Peak, math.Float32bits(res.Loss),
					want.K, want.PredictedPeak, want.Peak, math.Float32bits(want.Loss))
			}
			if res.K < 2*tc.gpus {
				t.Fatalf("%s iteration %d: K = %d, want every replica to run two micro-batches", name, iter, res.K)
			}
			for i, in := range cs.inputs {
				prev := last[i%tc.gpus]
				if i >= tc.gpus {
					prev = cs.inputs[i-tc.gpus]
				}
				shared := sharedOracle(prev, in)
				if i < tc.gpus {
					crossed += shared
				}
				if want := (int64(len(in)) - shared) * e.rowBytes; cs.copied[i] != want {
					t.Fatalf("%s iteration %d mb %d: copied %d bytes, want %d", name, iter, i, cs.copied[i], want)
				}
			}
			last = lastInputs(it, tc.gpus)
			pendingSettled(t, e, resident, last, fmt.Sprintf("%s iteration %d", name, iter))
		}
		if crossed == 0 {
			t.Fatalf("%s: no row was carried across an iteration boundary", name)
		}
		nothingPending := make([][]graph.NodeID, tc.gpus)

		if _, _, err := e.evaluate(goldenNodes(ds)); err != nil {
			t.Fatal(err)
		}
		pendingSettled(t, e, resident, nothingPending, name+", after Evaluate")

		it := planNext(t, e)
		if _, err := e.executeIteration(it, seqStager{e}, false); err != nil {
			t.Fatal(err)
		}
		sq := &squeezeStager{seqStager: seqStager{e}, beforeStage: true}
		if _, err := e.executeIteration(planNext(t, e), sq, false); !device.IsOOM(err) || !sq.carryLive {
			t.Fatalf("%s: want an OOM at micro-batch 0 with its carry live, got %v (carry live %v)", name, err, sq.carryLive)
		}
		sq.block.Free()
		pendingSettled(t, e, resident, nothingPending, name+", after the OOM")

		if _, err := e.executeIteration(planNext(t, e), seqStager{e}, false); err != nil {
			t.Fatal(err)
		}
		closedSettled(t, e, closeRun, name)
	}
}

// TestPipelinedInlineIterationKeepsNoCarry: an inline iteration of a
// pipelined session leaves no pending carry, because between iterations the
// loader's prefetches own the device's headroom.
func TestPipelinedInlineIterationKeepsNoCarry(t *testing.T) {
	ds := loadData(t, "cora")
	s, err := NewPipelinedSession(ds, baseConfig(ds, DGL), PipelineConfig{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b, err := s.SampleBatch()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunIterationOn(b); err != nil {
		t.Fatal(err)
	}
	if c := s.eng.carry[0]; c != nil {
		t.Fatalf("inline iteration of a pipelined session left a %d-byte carry", c.Bytes)
	}
	if _, err := s.RunIteration(); err != nil {
		t.Fatal(err)
	}
}
