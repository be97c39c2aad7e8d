package gnn

import (
	"fmt"
	"math/rand"
	"testing"

	"buffalo/internal/block"
	"buffalo/internal/tensor"
)

// tableRun is one forward + backward of a fresh model: the planned bytes the
// hook saw, the logits, the returned input gradient and every parameter
// gradient.
type tableRun struct {
	planned []int64
	act     int64
	logits  *tensor.Matrix
	dX      *tensor.Matrix
	grads   []*tensor.Matrix
}

func runTableModel(t *testing.T, cfg Config, mb *block.MicroBatch, labels []int32, arena *tensor.Arena,
	forward func(m *Model, hook func(int, int64) error) (*ForwardResult, error)) tableRun {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetArena(arena)
	var r tableRun
	res, err := forward(m, func(_ int, planned int64) error {
		r.planned = append(r.planned, planned)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r.act, r.logits = res.ActivationBytes(), res.Logits.Clone()
	_, dLogits, err := crossEntropy(res.Logits, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.dX, err = m.Backward(res, dLogits); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params.Params() {
		r.grads = append(r.grads, p.Grad.Clone())
	}
	arena.Reset()
	return r
}

// TestForwardTableMatchesGathered: for every aggregator and GAT, a model whose
// layer 0 reads a feature table through the micro-batch's input list
// (ForwardTable) plans the same bytes, and produces the same logits and every
// parameter gradient bit for bit, as the same model run by ForwardWithHook on
// the gathered rows. Tiny dims, and 128-wide inputs whose self term and source
// projections span several of tensor's 64-row panels; values include -0,
// denormals and underflowing means; plain allocation and a warm arena.
func TestForwardTableMatchesGathered(t *testing.T) {
	shapes := []struct {
		name          string
		inDim, seeds  int
		fanouts       []int
		tableRows     int
		hidden, heads int
	}{
		{"tiny", 3, 12, []int{3, 4}, 60, 4, 2},
		{"wide", 128, 60, []int{3, 3}, 300, 16, 2},
	}
	for _, s := range shapes {
		for _, base := range modelConfigs() {
			cfg := base
			cfg.InDim, cfg.Hidden, cfg.OutDim = s.inDim, s.hidden, 4
			if cfg.Arch == GAT {
				cfg.Heads = s.heads
			}
			name := fmt.Sprintf("%s/%s/%s", s.name, cfg.Arch, cfg.Aggregator)
			_, mb, _, labels := tinySetup(t, 29, s.tableRows, s.seeds, 4, s.inDim, s.fanouts)
			rng := rand.New(rand.NewSource(30))
			table := awkwardMatrix(rng, s.tableRows, s.inDim)
			gathered := tensor.New(len(mb.InputNodes()), s.inDim)
			for i, v := range mb.InputNodes() {
				copy(gathered.Row(i), table.Row(int(v)))
			}
			for passes, arena := range []*tensor.Arena{nil, tensor.NewArena(tensor.NewPool())} {
				for pass := 0; pass <= passes; pass++ { // the arena's second pass runs on recycled matrices
					want := runTableModel(t, cfg, mb, labels, arena, func(m *Model, hook func(int, int64) error) (*ForwardResult, error) {
						return m.ForwardWithHook(mb, gathered, hook)
					})
					got := runTableModel(t, cfg, mb, labels, arena, func(m *Model, hook func(int, int64) error) (*ForwardResult, error) {
						return m.ForwardTable(mb, table, hook)
					})
					if fmt.Sprint(got.planned) != fmt.Sprint(want.planned) || got.act != want.act {
						t.Fatalf("%s: planned %v / activations %d, want %v / %d", name, got.planned, got.act, want.planned, want.act)
					}
					requireSameBits(t, name+" logits", got.logits, want.logits)
					if got.dX != nil || want.dX != nil {
						t.Fatalf("%s: layer 0 returned an input gradient", name)
					}
					for i := range want.grads {
						requireSameBits(t, fmt.Sprintf("%s grad %d", name, i), got.grads[i], want.grads[i])
					}
				}
			}
		}
	}
}

// TestForwardTableErrors: a table of the wrong width and an input node past
// the table's last row are errors, not panics.
func TestForwardTableErrors(t *testing.T) {
	_, mb, _, _ := tinySetup(t, 31, 40, 6, 3, 3, []int{3})
	m, err := New(Config{Arch: SAGE, Aggregator: Mean, Layers: 1, InDim: 3, Hidden: 4, OutDim: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ForwardTable(mb, tensor.New(40, 4), nil); err == nil {
		t.Error("a 4-wide table for InDim 3: want an error")
	}
	maxNode := int32(0)
	for _, v := range mb.InputNodes() {
		maxNode = max(maxNode, v)
	}
	if _, err := m.ForwardTable(mb, tensor.New(int(maxNode), 3), nil); err == nil {
		t.Errorf("a %d-row table with input node %d: want an error", maxNode, maxNode)
	}
}
