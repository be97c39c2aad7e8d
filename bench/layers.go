package main

import (
	"math/rand"
	"time"

	"buffalo/internal/device"
	"buffalo/internal/nn"
	"buffalo/internal/obs"
	"buffalo/internal/tensor"
	"buffalo/internal/train"
)

// Stand-alone timings of single public functions at the shapes the workload
// issued. Each runs for a fixed, short time; they feed per-layer rows only.

const microWindow = 40 * time.Millisecond

// gemmShape is one layer's product: [m x k] activations against [k x n]
// weights.
type gemmShape struct{ m, k, n int }

func (g gemmShape) flops() float64 { return 2 * float64(g.m) * float64(g.k) * float64(g.n) }

func filled(rows, cols int, rng *rand.Rand) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32() - 0.5
	}
	return m
}

// gemmGFLOPS times the three public GEMMs at the given per-layer shapes, as
// the SAGE layer calls them: forward x@W, weight gradient xᵀ@dY, input
// gradient dY@Wᵀ. FLOPs are computed (2·m·k·n), not counted.
func gemmGFLOPS(shapes []gemmShape) (ab, atb, abt float64) {
	rng := rand.New(rand.NewSource(1))
	type operands struct{ x, w, dy, y, dw, dx *tensor.Matrix }
	var ops []operands
	var flops float64
	for _, g := range shapes {
		if g.m == 0 {
			continue
		}
		ops = append(ops, operands{
			x: filled(g.m, g.k, rng), w: filled(g.k, g.n, rng), dy: filled(g.m, g.n, rng),
			y: tensor.New(g.m, g.n), dw: tensor.New(g.k, g.n), dx: tensor.New(g.m, g.k),
		})
		flops += g.flops()
	}
	if len(ops) == 0 {
		return 0, 0, 0
	}
	rate := func(call func(o operands)) float64 {
		reps := 0
		t0 := time.Now()
		for time.Since(t0) < microWindow {
			for _, o := range ops {
				call(o)
			}
			reps++
		}
		return flops * float64(reps) / float64(time.Since(t0).Nanoseconds())
	}
	ab = rate(func(o operands) { tensor.MatMulInto(o.y, o.x, o.w, false) })
	atb = rate(func(o operands) { tensor.MatMulATBInto(o.dw, o.x, o.dy, false) })
	abt = rate(func(o operands) { tensor.MatMulABTInto(o.dx, o.dy, o.w, false) })
	return ab, atb, abt
}

// poolGetPutNS is one warm Get+Put pair on a tensor.Pool at the given shape.
func poolGetPutNS(rows, cols int) float64 {
	if rows == 0 {
		return 0
	}
	p := tensor.NewPool()
	p.Put(p.Get(rows, cols))
	const n = 2000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p.Put(p.Get(rows, cols))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// ledgerNSPerAlloc is one Alloc+Free pair on an otherwise empty device.
func ledgerNSPerAlloc() (float64, error) {
	gpu := device.NewGPU("ledger", device.GB)
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a, err := gpu.Alloc("activations/layer0", 4096)
		if err != nil {
			return 0, err
		}
		a.Free()
	}
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}

// lstmSeqMS is the median time of one LSTMCell.RunSequence plus
// BackwardSequence over steps inputs of [rows x width], the aggregator's
// call shape (the cell maps width to width).
func lstmSeqMS(rows, width, steps int) float64 {
	if rows == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(1))
	cell := nn.NewLSTMCell("bench", width, width, rng)
	xs := make([]*tensor.Matrix, steps)
	for i := range xs {
		xs[i] = filled(rows, width, rng)
	}
	dh := filled(rows, width, rng)
	var times series
	t0 := time.Now()
	for time.Since(t0) < 4*microWindow || len(times) < 3 {
		t := time.Now()
		_, cache := cell.RunSequence(xs)
		cell.BackwardSequence(cache, dh)
		times.addDur(time.Since(t))
	}
	return times.median()
}

// recorderOverhead runs two fresh sessions of the same configuration over the
// same batches, one with a ring trace and a metrics registry attached, one
// without, alternating iteration by iteration, and returns median(with) /
// median(without) - 1.
func recorderOverhead(r *run, d time.Duration) (float64, error) {
	ds, err := r.sp.load()
	if err != nil {
		return 0, err
	}
	cfg := r.sp.trainConfig(ds, r.opt.seed)
	plain, err := train.NewSession(ds, cfg)
	if err != nil {
		return 0, err
	}
	defer plain.Close()
	cfg.Obs = obs.NewRecorder(obs.NewRingTrace(1<<14), obs.NewMetrics())
	recorded, err := train.NewSession(ds, cfg)
	if err != nil {
		return 0, err
	}
	defer recorded.Close()
	var with, without series
	t0 := time.Now()
	for i := 0; time.Since(t0) < d || len(with) < 2; i++ {
		t := time.Now()
		if _, err := plain.RunIteration(); err != nil {
			return 0, err
		}
		dp := time.Since(t)
		t = time.Now()
		if _, err := recorded.RunIteration(); err != nil {
			return 0, err
		}
		if i >= 3 { // both sessions warm
			without.addDur(dp)
			with.addDur(time.Since(t))
		}
	}
	return with.median()/without.median() - 1, nil
}
