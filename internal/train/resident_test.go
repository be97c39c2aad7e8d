package train

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"buffalo/internal/block"
	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/graph"
	"buffalo/internal/obs"
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
	it, err := e.planIteration(sc, &sc.batch, 0)
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

// sharedOracle counts the nodes of next that prev also lists (prev nil:
// none): the rows a micro-batch would find on its device if only its
// replica's previous micro-batch had left its rows there.
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

// lruOracle is the map-and-slice model of one replica's resident rows: the
// rows idle on its device, least recently used first.
type lruOracle []graph.NodeID

// take removes the rows of in the oracle holds and returns their count.
func (o *lruOracle) take(in []graph.NodeID) int64 {
	want := map[graph.NodeID]bool{}
	for _, v := range in {
		want[v] = true
	}
	var kept lruOracle
	for _, v := range *o {
		if !want[v] {
			kept = append(kept, v)
		}
	}
	hits := int64(len(*o) - len(kept))
	*o = kept
	return hits
}

// push appends in as the newest rows.
func (o *lruOracle) push(in []graph.NodeID) { *o = append(*o, in...) }

// keep drops the oldest rows until at most rows remain.
func (o *lruOracle) keep(rows int64) {
	if n := int64(len(*o)); n > rows {
		*o = slices.Clone((*o)[n-max(rows, 0):])
	}
}

// setRows lists the rows of r, oldest first.
func setRows(r *residentRows) []graph.NodeID {
	if r.links == nil {
		return nil
	}
	var out []graph.NodeID
	s := int32(len(r.links) - 1)
	for v := r.links[s].next; v != s; v = r.links[v].next {
		out = append(out, graph.NodeID(v))
	}
	return out
}

// settled fails unless every replica d holds exactly live[d] allocated
// bytes and its resident set, its device's cached bytes and want[d] agree:
// the same rows in the same order, rows × rowBytes cached.
func settled(t *testing.T, e *engine, live []int64, want []lruOracle, when string) {
	t.Helper()
	for d, r := range e.replicas {
		set := &e.resident[d]
		got := setRows(set)
		if l := r.gpu.Live(); l != live[d] || !slices.Equal(got, []graph.NodeID(want[d])) ||
			set.rows != int64(len(got)) || r.gpu.Cached() != int64(len(want[d]))*e.rowBytes {
			t.Fatalf("%s: replica %d holds %d live, %d cached, %d resident rows (count %d), want %d live and the oracle's %d rows",
				when, d, l, r.gpu.Cached(), len(got), set.rows, live[d], len(want[d]))
		}
	}
}

// closedSettled fails unless close leaves nothing on any replica.
func closedSettled(t *testing.T, e *engine, close func(), when string) {
	t.Helper()
	close()
	settled(t, e, make([]int64, len(e.replicas)), make([]lruOracle, len(e.replicas)), when+", after Close")
}

// TestSeqStagerCopiesOnlyUncarriedRows drives the sequential stager over
// random input lists on 1 and 2 replicas of a roomy device, each list set
// one iteration: each micro-batch copies exactly the rows not in its
// replica's resident set per the LRU oracle (every row an earlier
// micro-batch on the replica released, since nothing reclaims here), never
// more than the rows its replica's previous micro-batch did not list, and
// rows are found across iteration boundaries and beyond the previous
// micro-batch; a replica that runs nothing in an iteration keeps its rows;
// a micro-batch with nothing to copy makes no copy and so pays no latency;
// while a micro-batch computes its replica holds its full input rows live
// and the rest of its set cached, between iterations its resident
// footprint live and exactly the oracle's rows, in its order, cached; and
// after Close nothing.
func TestSeqStagerCopiesOnlyUncarriedRows(t *testing.T) {
	ds := loadData(t, "cora")
	rng := rand.New(rand.NewSource(38))
	for _, n := range []int{1, 2} {
		e, closeRun := testEngine(t, ds, baseConfig(ds, Buffalo), n)
		resident := residents(e)
		cases := [][][]graph.NodeID{
			randomInputs(rng, 1, 50),                             // K = 1: replica 1 runs nothing
			{{1, 2, 3, 4}, {4, 3}, {3, 4, 2, 1}, {2, 9}, {9, 2}}, // successors fully resident
			{{9, 2}, {2, 9, 5}},                                  // first micro-batches fully resident
			{{2, 9, 7}},                                          // replica 1 keeps its rows
		}
		for k := 2; k <= 9; k++ {
			cases = append(cases, randomInputs(rng, k, 40+rng.Intn(200)))
		}
		oracle := make([]lruOracle, n)
		prev := make([][]graph.NodeID, n) // each replica's previous input list
		var crossed, beyond int
		for c, lists := range cases {
			it := inputIter(lists)
			for i, in := range lists {
				d := i % n
				hits := oracle[d].take(in)
				misses := int64(len(in)) - hits
				bound := int64(len(in)) - sharedOracle(prev[d], in)
				gpu := e.replicas[d].gpu
				pre := gpu.Stats()
				smb, err := seqStager{e}.stage(it, i)
				if err != nil {
					t.Fatal(err)
				}
				st := gpu.Stats()
				if got := st.Transferred - pre.Transferred; got != misses*e.rowBytes || misses > bound {
					t.Fatalf("n=%d case %d mb %d: copied %d bytes, want %d missing rows = %d (previous-micro-batch bound %d rows)",
						n, c, i, got, misses, misses*e.rowBytes, bound)
				}
				if copied := st.TransferTime > pre.TransferTime; copied != (misses > 0) {
					t.Fatalf("n=%d case %d mb %d: copy made = %v with %d missing rows", n, c, i, copied, misses)
				}
				if live, cached := gpu.Live(), gpu.Cached(); live != resident[d]+e.featBytes(smb.mb) ||
					cached != int64(len(oracle[d]))*e.rowBytes {
					t.Fatalf("n=%d case %d mb %d: live %d cached %d while computing, want resident %d + %d input bytes, %d cached",
						n, c, i, live, cached, resident[d], e.featBytes(smb.mb), int64(len(oracle[d]))*e.rowBytes)
				}
				if hits > 0 && i < n {
					crossed++
				}
				if misses < bound {
					beyond++
				}
				seqStager{e}.release(smb, true)
				oracle[d].push(in)
				prev[d] = in
			}
			settled(t, e, resident, oracle, fmt.Sprintf("n=%d case %d", n, c))
		}
		if crossed == 0 || beyond == 0 {
			t.Fatalf("n=%d: %d first micro-batches found rows across an iteration boundary, %d found rows beyond their predecessor's: want both > 0",
				n, crossed, beyond)
		}
		closedSettled(t, e, closeRun, fmt.Sprintf("n=%d", n))
	}
}

// squeezeStager is the sequential stager with another tenant on the device:
// around micro-batch at it takes the room left on that micro-batch's
// device — before staging (the feature tensor does not fit) or after (the
// first layer's activations do not fit) — and releases nothing itself.
type squeezeStager struct {
	seqStager
	at           int
	beforeStage  bool
	block        *device.Allocation
	rowsResident bool // some device cached resident rows when the squeeze came
}

func (s *squeezeStager) squeeze(gpu *device.GPU, leave int64) error {
	for _, r := range s.e.replicas {
		s.rowsResident = s.rowsResident || r.gpu.Cached() > 0
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
		if err := s.squeeze(gpu, 0); err != nil {
			return nil, err
		}
	}
	return smb, err
}

// TestCarryLedgerUnderOOM runs Buffalo at a fixed K on 1 and 2 replicas:
// after every successful iteration each device holds exactly its resident
// footprint live and, cached, the rows every micro-batch it ran released,
// in the LRU oracle's order; an iteration that runs out of memory at
// micro-batch n (replica 0's second) while rows are resident leaves every
// device at its resident footprint with nothing cached and an empty set,
// whether the feature tensor or the activations are refused; and Close
// leaves nothing.
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
			oracle := make([]lruOracle, gpus)
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
					t.Fatalf("%d GPUs: K = %d, copied %d of %d input bytes: want K = %d and resident rows found",
						gpus, len(it.mbs), h2d, feat, cfg.MicroBatches)
				}
				for j, mb := range it.mbs {
					oracle[j%gpus].take(mb.InputNodes())
					oracle[j%gpus].push(mb.InputNodes())
				}
				settled(t, e, resident, oracle, fmt.Sprintf("%d GPUs, after successful iteration %d", gpus, i))
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
			if !sq.rowsResident {
				t.Fatalf("%d GPUs: no rows were resident when micro-batch %d failed", gpus, sq.at)
			}
			live := slices.Clone(resident)
			live[0] += sq.block.Bytes // the squeeze sits on replica 0
			settled(t, e, live, make([]lruOracle, gpus), fmt.Sprintf("%d GPUs, after the OOM", gpus))
			sq.block.Free()
			closedSettled(t, e, closeRun, fmt.Sprintf("%d GPUs", gpus))
		}
	}
}

// copyStager is the sequential stager recording, per staged micro-batch, its
// input list, its index in its iteration, its replica and the bytes its
// stage copied.
type copyStager struct {
	seqStager
	inputs [][]graph.NodeID
	idxs   []int
	devs   []int
	copied []int64
}

func (s *copyStager) stage(it *pipeIter, i int) (*stagedMB, error) {
	gpu := s.e.replicas[i%len(s.e.replicas)].gpu
	pre := gpu.Stats().Transferred
	smb, err := s.seqStager.stage(it, i)
	if err == nil {
		s.inputs = append(s.inputs, slices.Clone(smb.mb.InputNodes()))
		s.idxs = append(s.idxs, i)
		s.devs = append(s.devs, smb.dev)
		s.copied = append(s.copied, gpu.Stats().Transferred-pre)
	}
	return smb, err
}

// lruReplay predicts the rows each staged micro-batch copied from nothing
// but the recorded input lists (inputs[k] staged on replica devs[k], in
// staging order) and e's ledger trace since the engine was built: per
// replica it replays every charge and release in sequence order against an
// LRU list of the rows idle on the device. A "features" charge first takes
// the rows its micro-batch finds in the list (the rest are the misses);
// any charge then drops the oldest rows until live + rows × rowBytes fits
// the capacity; a "features" release appends the micro-batch's rows as the
// newest. It returns the misses per staged micro-batch and the number of
// charges that dropped rows. The trace must hold training iterations only.
func lruReplay(t *testing.T, e *engine, events []obs.Event, inputs [][]graph.NodeID, devs []int) (misses []int64, reclaims int) {
	t.Helper()
	events = slices.Clone(events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	misses = make([]int64, len(inputs))
	for d, r := range e.replicas {
		var mine []int // staged micro-batches of replica d, in order
		for k, dev := range devs {
			if dev == d {
				mine = append(mine, k)
			}
		}
		var rows lruOracle
		var live int64
		staged, released := 0, 0
		for _, ev := range events {
			if ev.Dev != r.gpu.Name() || (ev.Kind != obs.KindAlloc && ev.Kind != obs.KindFree) {
				continue
			}
			feat := ev.Name == "features"
			if ev.Kind == obs.KindFree {
				live -= ev.Bytes
				if feat {
					rows.push(inputs[mine[released]])
					released++
				}
				continue
			}
			if feat {
				k := mine[staged]
				staged++
				misses[k] = int64(len(inputs[k])) - rows.take(inputs[k])
			}
			live += ev.Bytes
			if fit := (r.gpu.Capacity() - live) / e.rowBytes; int64(len(rows)) > fit {
				rows.keep(fit)
				reclaims++
			}
		}
		if staged != len(mine) || released != len(mine) {
			t.Fatalf("replica %d: the trace charged %d and released %d feature tensors for %d staged micro-batches",
				d, staged, released, len(mine))
		}
	}
	return misses, reclaims
}

// checkCopies fails unless every micro-batch cs staged since e was built
// copied exactly the rows lruReplay predicts, no more than its replica's
// previous micro-batch did not list, and the devices copied nothing else. It
// returns the reclaiming charges the replay saw, the rows found by a
// replica's first micro-batch of an iteration (across the boundary) and the
// bytes copied below that per-micro-batch bound.
func checkCopies(t *testing.T, e *engine, tr *obs.Trace, cs *copyStager, name string) (reclaims int, crossed, below int64) {
	t.Helper()
	misses, reclaims := lruReplay(t, e, tr.Events(), cs.inputs, cs.devs)
	gpus := len(e.replicas)
	last := make([][]graph.NodeID, gpus)
	var copiedTotal int64
	for k, in := range cs.inputs {
		d := cs.devs[k]
		bound := (int64(len(in)) - sharedOracle(last[d], in)) * e.rowBytes
		if want := misses[k] * e.rowBytes; cs.copied[k] != want || cs.copied[k] > bound {
			t.Fatalf("%s: staged micro-batch %d on replica %d copied %d bytes, the LRU replay predicts %d (previous-micro-batch bound %d)",
				name, k, d, cs.copied[k], want, bound)
		}
		if cs.idxs[k] < gpus {
			crossed += int64(len(in)) - misses[k]
		}
		below += bound - cs.copied[k]
		copiedTotal += cs.copied[k]
		last[d] = in
	}
	var h2d int64
	for _, r := range e.replicas {
		h2d += r.gpu.Stats().Transferred
	}
	if h2d != copiedTotal {
		t.Fatalf("%s: the devices copied %d bytes, the staged micro-batches %d", name, h2d, copiedTotal)
	}
	return reclaims, crossed, below
}

// TestCarryCrossesIterations runs Buffalo on 1 and 2 replicas and Betty on
// one, each under a tight budget that plans its K and a roomy one at a fixed
// K, recorded, next to a twin run that drops its resident rows after every
// iteration. Each iteration's K, predicted peak, ledger peak and loss bits
// equal the twin's: planning counts resident rows as free, and they are
// cached, never live. Each micro-batch copies exactly the rows the LRU
// replay of the ledger trace predicts, so the devices' Stats().Transferred
// is predicted exactly, and never more than its replica's previous
// micro-batch did not list — reaching into the previous iteration for the
// replica's first. Rows do cross the boundary; under the tight budgets
// charges reclaim resident rows, and under the roomy ones micro-batches
// find rows older than their predecessor's. Evaluate, an OOM with rows
// resident, and Close each leave every device at its resident footprint
// with nothing cached (nothing at all, after Close).
func TestCarryCrossesIterations(t *testing.T) {
	ds := loadData(t, "cora")
	for _, tc := range []struct {
		sys   System
		gpus  int
		tight bool
	}{ // data-parallel runs Buffalo only
		{Buffalo, 1, true}, {Buffalo, 1, false},
		{Buffalo, 2, true}, {Buffalo, 2, false},
		{Betty, 1, true}, {Betty, 1, false},
	} {
		name := fmt.Sprintf("%s/%d GPUs/tight=%v", tc.sys, tc.gpus, tc.tight)
		cfg := goldenConfig(ds, goldenModels[0])
		cfg.System = tc.sys
		if !tc.tight {
			cfg.MemBudget = device.GB
			cfg.MicroBatches = 3 * tc.gpus
		}
		twin, _ := testEngine(t, ds, cfg, tc.gpus)
		tr := obs.NewTrace()
		cfg.Obs = obs.NewRecorder(tr, nil)
		e, closeRun := testEngine(t, ds, cfg, tc.gpus)
		resident := residents(e)
		cs := &copyStager{seqStager: seqStager{e}}
		for iter := 0; iter < 4; iter++ {
			res, err := e.executeIteration(planNext(t, e), cs, false)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.executeIteration(planNext(t, twin), seqStager{twin}, false)
			if err != nil {
				t.Fatal(err)
			}
			twin.dropResident()
			if res.K != want.K || res.PredictedPeak != want.PredictedPeak || res.Peak != want.Peak ||
				math.Float32bits(res.Loss) != math.Float32bits(want.Loss) {
				t.Fatalf("%s iteration %d: K %d pred %d peak %d loss %08x, twin without resident rows K %d pred %d peak %d loss %08x",
					name, iter, res.K, res.PredictedPeak, res.Peak, math.Float32bits(res.Loss),
					want.K, want.PredictedPeak, want.Peak, math.Float32bits(want.Loss))
			}
			if res.K < 2*tc.gpus {
				t.Fatalf("%s iteration %d: K = %d, want every replica to run two micro-batches", name, iter, res.K)
			}
			if live := residents(e); !slices.Equal(live, resident) {
				t.Fatalf("%s iteration %d: live %v after the iteration, want the resident footprint %v", name, iter, live, resident)
			}
		}
		reclaims, crossed, below := checkCopies(t, e, tr, cs, name)
		if crossed == 0 {
			t.Fatalf("%s: no row was found across an iteration boundary", name)
		}
		if tc.tight && reclaims == 0 {
			t.Fatalf("%s: no charge reclaimed resident rows under the tight budget", name)
		}
		if !tc.tight && below == 0 {
			t.Fatalf("%s: no micro-batch found rows older than its predecessor's", name)
		}
		nothing := make([]lruOracle, tc.gpus)

		if _, _, err := e.evaluate(goldenNodes(ds)); err != nil {
			t.Fatal(err)
		}
		settled(t, e, resident, nothing, name+", after Evaluate")

		if _, err := e.executeIteration(planNext(t, e), seqStager{e}, false); err != nil {
			t.Fatal(err)
		}
		sq := &squeezeStager{seqStager: seqStager{e}, beforeStage: true}
		if _, err := e.executeIteration(planNext(t, e), sq, false); !device.IsOOM(err) || !sq.rowsResident {
			t.Fatalf("%s: want an OOM at micro-batch 0 with rows resident, got %v (rows resident %v)", name, err, sq.rowsResident)
		}
		sq.block.Free()
		settled(t, e, resident, nothing, name+", after the OOM")

		if _, err := e.executeIteration(planNext(t, e), seqStager{e}, false); err != nil {
			t.Fatal(err)
		}
		closedSettled(t, e, closeRun, name)
	}
}

// TestPipelinedInlineIterationKeepsNoCarry: an inline iteration of a
// pipelined session keeps no rows resident, within the iteration or after
// it, because the loader's prefetcher allocates on the same device
// concurrently: every micro-batch finds nothing resident, and the device
// caches nothing afterwards.
func TestPipelinedInlineIterationKeepsNoCarry(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	cfg.MicroBatches = 4
	tr := obs.NewTrace()
	cfg.Obs = obs.NewRecorder(tr, nil)
	s, err := NewPipelinedSession(ds, cfg, PipelineConfig{Depth: 1})
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
	var marks int
	var found int64
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindMark && ev.Name == "stage/resident" {
			marks++
			found += ev.Bytes
		}
	}
	if marks != res.K || res.K != cfg.MicroBatches || found != 0 {
		t.Fatalf("inline iteration: %d stage marks for K=%d found %d resident bytes, want %d marks and none",
			marks, res.K, found, cfg.MicroBatches)
	}
	if c, rows := s.GPU.Cached(), setRows(&s.eng.resident[0]); c != 0 || len(rows) != 0 {
		t.Fatalf("inline iteration of a pipelined session left %d bytes cached, %d rows resident", c, len(rows))
	}
	if _, err := s.RunIteration(); err != nil {
		t.Fatal(err)
	}
}
