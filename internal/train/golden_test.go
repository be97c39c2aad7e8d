package train

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/graph"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_bits.txt from this run")

const goldenPath = "testdata/golden_bits.txt"

// goldenModel is one row of the bit-identity matrix: a dataset, a model and
// the device budget its sequential and serving runs plan against (tight
// enough that the K-search splits the batch).
type goldenModel struct {
	ds     string
	arch   gnn.Arch
	agg    gnn.Aggregator
	inDim  int // 0: the dataset's full feature width
	budget int64
	// systems also runs goldenSystems sequentially on this row.
	systems bool
}

func (m goldenModel) name() string {
	if m.arch == gnn.GAT {
		return m.ds + "/gat"
	}
	return m.ds + "/" + string(m.agg)
}

// goldenModels covers both datasets with every SAGE aggregator, plus GAT on
// cora. The LSTM rows read 64 of the feature columns; the mean rows also run
// every other system.
var goldenModels = []goldenModel{
	{ds: "cora", arch: gnn.SAGE, agg: gnn.Mean, budget: 3 * device.MB / 2, systems: true},
	{ds: "cora", arch: gnn.SAGE, agg: gnn.Pool, budget: 2 * device.MB},
	{ds: "cora", arch: gnn.SAGE, agg: gnn.LSTM, inDim: 64, budget: 2 * device.MB},
	{ds: "cora", arch: gnn.GAT, budget: 5 * device.MB / 4},
	{ds: "ogbn-arxiv", arch: gnn.SAGE, agg: gnn.Mean, budget: 2 * device.MB, systems: true},
	{ds: "ogbn-arxiv", arch: gnn.SAGE, agg: gnn.Pool, budget: 3 * device.MB},
	{ds: "ogbn-arxiv", arch: gnn.SAGE, agg: gnn.LSTM, inDim: 64, budget: 2 * device.MB},
}

// goldenConfig is the small training configuration every mode of one matrix
// row shares.
func goldenConfig(ds *datagen.Dataset, m goldenModel) Config {
	cfg := baseConfig(ds, Buffalo)
	cfg.Model.Arch, cfg.Model.Aggregator = m.arch, m.agg
	if m.inDim > 0 {
		cfg.Model.InDim = m.inDim
	}
	cfg.Model.Hidden = 16
	if m.arch == gnn.GAT {
		cfg.Model.Heads = 2
		cfg.Model.OutDim = ds.NumClasses + ds.NumClasses%2
	}
	cfg.Fanouts = []int{5, 10}
	cfg.BatchSize = 96
	cfg.MemBudget = m.budget
	return cfg
}

// goldenNodes is the fixed node list Evaluate and Infer read.
func goldenNodes(ds *datagen.Dataset) []graph.NodeID {
	nodes := make([]graph.NodeID, 0, 64)
	for v := 0; len(nodes) < cap(nodes); v += ds.NumNodes() / cap(nodes) {
		nodes = append(nodes, graph.NodeID(v))
	}
	return nodes
}

const goldenIters = 2

// goldenIter writes one training iteration's recorded fields. The ledger peak
// is written only where it is a pure function of the configuration, and so
// are the H2D bytes the iteration copied (h2d < 0 leaves them out: a
// pipelined run's copies depend on what its cache held when it staged).
func goldenIter(w io.Writer, tag string, i int, r *IterationResult, peak bool, h2d int64) {
	fmt.Fprintf(w, "%s it%d loss=%08x acc=%v K=%d pred=%d", tag, i,
		math.Float32bits(r.Loss), r.Accuracy, r.K, r.PredictedPeak)
	if peak {
		fmt.Fprintf(w, " peak=%d", r.Peak)
	}
	if h2d >= 0 {
		fmt.Fprintf(w, " h2d=%d", h2d)
	}
	fmt.Fprintln(w)
}

// transferred sums the host-to-device bytes the devices have copied so far.
func transferred(gpus ...*device.GPU) int64 {
	var n int64
	for _, g := range gpus {
		n += g.Stats().Transferred
	}
	return n
}

// goldenComm writes one data-parallel iteration's simulated interconnect
// time in ns: the busy total always, the exposed/hidden split only where it
// does not depend on measured compute (no overlap).
func goldenComm(w io.Writer, tag string, i int, r *MultiGPUResult, split bool) {
	fmt.Fprintf(w, "%s comm%d busy=%d", tag, i, int64(r.Phases.Communication))
	if split {
		fmt.Fprintf(w, " exposed=%d hidden=%d", int64(r.ExposedComm), int64(r.HiddenComm))
	}
	fmt.Fprintln(w)
}

// runDataParallel runs goldenIters iterations of a 2-GPU run at K = 4 on a
// roomy budget and records each one's fields and interconnect time.
func runDataParallel(t *testing.T, ds *datagen.Dataset, cfg Config, w io.Writer, tag string, overlap bool) {
	cfg.MemBudget *= 4
	cfg.MicroBatches = 4
	dp, err := NewDataParallel(ds, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	gpus := []*device.GPU{dp.Cluster.GPU(0), dp.Cluster.GPU(1)}
	for i := 0; i < goldenIters; i++ {
		h2d := transferred(gpus...)
		r, err := dp.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		goldenIter(w, tag, i, &r.IterationResult, !overlap, transferred(gpus...)-h2d)
		goldenComm(w, tag, i, r, !overlap)
	}
}

// goldenModes are the execution paths each matrix row runs: the sequential
// session with Evaluate after every iteration, the pipelined session with a
// feature cache, a 2-GPU run with one whole-set all-reduce, a 2-GPU ZeRO-1
// run with overlapped collectives, and two identical Infer requests on a
// cached serving session (the second one hits).
var goldenModes = []struct {
	name string
	run  func(t *testing.T, ds *datagen.Dataset, cfg Config, w io.Writer)
}{
	{"seq", func(t *testing.T, ds *datagen.Dataset, cfg Config, w io.Writer) {
		s, err := NewSession(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < goldenIters; i++ {
			h2d := transferred(s.GPU)
			r, err := s.RunIteration()
			if err != nil {
				t.Fatal(err)
			}
			goldenIter(w, "seq", i, r, true, transferred(s.GPU)-h2d)
			loss, acc, err := s.Evaluate(goldenNodes(ds))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(w, "seq eval%d loss=%08x acc=%v\n", i, math.Float32bits(loss), acc)
		}
	}},
	{"pipe", func(t *testing.T, ds *datagen.Dataset, cfg Config, w io.Writer) {
		cfg.MemBudget *= 4
		cfg.MicroBatches = 3
		s, err := NewPipelinedSession(ds, cfg, PipelineConfig{Depth: 2, CacheBudget: cfg.MemBudget / 8})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < goldenIters; i++ {
			r, err := s.RunIteration()
			if err != nil {
				t.Fatal(err)
			}
			goldenIter(w, "pipe", i, r, false, -1)
		}
	}},
	{"allreduce", func(t *testing.T, ds *datagen.Dataset, cfg Config, w io.Writer) {
		runDataParallel(t, ds, cfg, w, "allreduce", false)
	}},
	{"zero1", func(t *testing.T, ds *datagen.Dataset, cfg Config, w io.Writer) {
		cfg.ZeRO1, cfg.CommOverlap = true, true
		runDataParallel(t, ds, cfg, w, "zero1", true)
	}},
	{"infer", func(t *testing.T, ds *datagen.Dataset, cfg Config, w io.Writer) {
		s, err := NewInferenceSession(ds, cfg, cfg.MemBudget/8)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		nodes := goldenNodes(ds)
		for i := 0; i < 2; i++ {
			r, err := s.Infer(nodes)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, v := range nodes {
				h.Write([]byte{byte(r.Classes[v])})
			}
			fmt.Fprintf(w, "infer r%d K=%d pred=%d peak=%d hits=%d misses=%d classes=%016x\n",
				i, r.K, r.PredictedPeak, r.Peak, r.CacheHits, r.CacheMisses, h.Sum64())
		}
	}},
}

// goldenSystems are the systems other than Buffalo, each run as a sequential
// session: the partitioned ones search K at the row's budget, DGL and PyG
// train the whole batch on a device wholeBudget times that size.
var goldenSystems = []System{Betty, RandomP, RangeP, MetisP, DGL, PyG}

const wholeBudget = 4

// runSystems writes goldenIters sequential iterations of every goldenSystems
// entry: loss bits, accuracy, K, the largest price the plan gave a part
// (pred=, for the systems that price), the ledger peak and the H2D bytes.
func runSystems(t *testing.T, ds *datagen.Dataset, cfg Config, w io.Writer) {
	for _, sys := range goldenSystems {
		cfg := cfg
		cfg.System = sys
		if sys == DGL || sys == PyG {
			cfg.MemBudget *= wholeBudget
		}
		s, err := NewSession(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < goldenIters; i++ {
			h2d := transferred(s.GPU)
			r, err := s.RunIteration()
			if err != nil {
				t.Fatalf("%s: %v", sys, err)
			}
			fmt.Fprintf(w, "seq/%s it%d loss=%08x acc=%v K=%d", sys, i, math.Float32bits(r.Loss), r.Accuracy, r.K)
			if len(r.PerMicroEstimate) > 0 {
				fmt.Fprintf(w, " pred=%d", slices.Max(r.PerMicroEstimate))
			}
			fmt.Fprintf(w, " peak=%d h2d=%d\n", r.Peak, transferred(s.GPU)-h2d)
		}
		s.Close()
	}
}

// TestGoldenBits holds every execution path to the bits it produced when the
// golden file was written: loss bits, accuracy, K and predicted peaks
// everywhere, ledger peaks where they are deterministic (sequential and
// serving; a pipelined run's ledger peak depends on how far the prefetcher
// got), and the H2D bytes of every synchronously staged iteration. Under -race the build has no vector kernels, so there the same file is
// the portable path's comparison. Regenerate with -update only for a change
// that means to move numbers, and say why in CHANGES.md.
//
// The matrix rows are independent, so they run as parallel subtests; the
// file is assembled in matrix order once all of them are done.
func TestGoldenBits(t *testing.T) {
	datasets := map[string]*datagen.Dataset{}
	for _, m := range goldenModels {
		datasets[m.ds] = loadData(t, m.ds)
	}
	rows := make([]bytes.Buffer, len(goldenModels))
	t.Run("matrix", func(t *testing.T) {
		for i, m := range goldenModels {
			t.Run(m.name(), func(t *testing.T) {
				t.Parallel()
				ds := datasets[m.ds]
				cfg := goldenConfig(ds, m)
				emit := func(out *bytes.Buffer) {
					for _, line := range strings.SplitAfter(out.String(), "\n") {
						if line != "" {
							rows[i].WriteString(m.name() + " " + line)
						}
					}
				}
				for _, mode := range goldenModes {
					var out bytes.Buffer
					mode.run(t, ds, cfg, &out)
					emit(&out)
				}
				if m.systems {
					var out bytes.Buffer
					runSystems(t, ds, cfg, &out)
					emit(&out)
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	var buf bytes.Buffer
	for i := range rows {
		buf.Write(rows[i].Bytes())
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	got := strings.Split(buf.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", goldenPath, i+1, g, w)
		}
	}
}
