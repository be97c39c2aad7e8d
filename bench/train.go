package main

import (
	"fmt"
	"math"

	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/train"
)

type seqEnv struct {
	ds   *datagen.Dataset
	cfg  train.Config
	sess *train.Session
}

func (e *seqEnv) close() {
	if e != nil && e.sess != nil {
		e.sess.Close()
	}
}

func setupSeq(r *run, c *setupClock) (*seqEnv, error) {
	e := &seqEnv{}
	var err error
	c.step(func() {
		if e.ds, err = r.sp.load(); err != nil {
			return
		}
		e.cfg = r.sp.trainConfig(e.ds, r.opt.seed)
		e.sess, err = train.NewSession(e.ds, e.cfg)
	})
	for i := 0; i < r.warm() && err == nil; i++ {
		c.step(func() { _, err = e.sess.RunIteration() })
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// iterResult splits an iteration's critical path on the simulated clock into
// what the simulator computed from byte counts (exposed transfers and
// collectives) and what it derived from host time (kernels, planning).
func iterResult(res *train.IterationResult) opResult {
	fixed := res.Phases.DataLoading + res.ExposedComm
	return opResult{simHost: res.CriticalPath() - fixed, simFixed: fixed,
		k: float64(res.K), predicted: res.PredictedPeak, peak: res.Peak}
}

func runTrainSeq(r *run) error {
	if err := verifyTrainSeq(r); err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	env, err := setupMedian(r, func(c *setupClock) (*seqEnv, error) { return setupSeq(r, c) }, (*seqEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	if r.opt.trace {
		return traceTrainSeq(r, env)
	}
	st, err := r.measureOps(r.window(1), func() (opResult, error) {
		res, err := env.sess.RunIteration()
		if err != nil {
			return opResult{}, err
		}
		return iterResult(res), nil
	})
	if err != nil {
		return err
	}
	r.reportOps(st, r.sp.batch)
	return nil
}

// verifyTrainSeq checks, on the first iterations of fresh sessions and
// outside every measured window: the replay's loss and K equal the
// session's on the same batch; the partitioned loss equals an unpartitioned
// DGL K=1 session's within 1e-3 (Table IV); every plan covers each seed
// exactly once; the device peak stays inside the budget; and a second
// session of the same seed repeats the K sequence and the losses exactly.
func verifyTrainSeq(r *run) error {
	ds, err := r.sp.load()
	if err != nil {
		return err
	}
	cfg := r.sp.trainConfig(ds, r.opt.seed)
	a, err := train.NewSession(ds, cfg)
	if err != nil {
		return err
	}
	defer a.Close()
	whole := cfg
	whole.System, whole.MicroBatches, whole.MemBudget = train.DGL, 0, 64*device.GB
	d, err := train.NewSession(ds, whole)
	if err != nil {
		return err
	}
	defer d.Close()
	rp, err := newReplayer(ds, cfg, dpCacheBudget, nil)
	if err != nil {
		return err
	}
	var ks []int
	var losses []float32
	for i := 0; i < r.verifyCount(); i++ {
		b, err := a.SampleBatch()
		if err != nil {
			return err
		}
		out, err := rp.iteration(b)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		ra, err := a.RunIterationOn(b)
		if err != nil {
			return err
		}
		rd, err := d.RunIterationOn(b)
		if err != nil {
			return err
		}
		r.check(out.covered, "iteration %d: plan does not cover each seed exactly once", i)
		r.check(out.k == ra.K && out.predictedPeak == ra.PredictedPeak,
			"iteration %d: replay K %d predicted peak %d, session K %d predicted peak %d", i, out.k, out.predictedPeak, ra.K, ra.PredictedPeak)
		r.check(absDiff(out.loss, ra.Loss) <= 1e-5, "iteration %d: replay loss %v, session loss %v", i, out.loss, ra.Loss)
		r.check(absDiff(ra.Loss, rd.Loss) <= 1e-3, "iteration %d: partitioned loss %v, unpartitioned loss %v", i, ra.Loss, rd.Loss)
		r.check(ra.Peak <= cfg.MemBudget, "iteration %d: peak %d over budget %d", i, ra.Peak, cfg.MemBudget)
		r.check(out.peak <= cfg.MemBudget, "iteration %d: replay peak %d over budget %d", i, out.peak, cfg.MemBudget)
		ks = append(ks, ra.K)
		losses = append(losses, ra.Loss)
	}
	again, err := train.NewSession(ds, cfg)
	if err != nil {
		return err
	}
	defer again.Close()
	for i := 0; i < r.verifyCount(); i++ {
		res, err := again.RunIteration()
		if err != nil {
			return err
		}
		r.check(res.K == ks[i] && res.Loss == losses[i],
			"iteration %d: second run of the seed gave K %d loss %v, first gave K %d loss %v", i, res.K, res.Loss, ks[i], losses[i])
	}
	r.logf("verified %d iterations: replay = session, partitioned = unpartitioned (1e-3), cover, peak <= budget, repeatable; K %v, final loss %v\n",
		len(ks), ks, losses[len(losses)-1])
	return nil
}

func absDiff(a, b float32) float64 { return math.Abs(float64(a) - float64(b)) }

type dpEnv struct {
	ds  *datagen.Dataset
	cfg train.Config
	dp  *train.DataParallel
}

func (e *dpEnv) close() {
	if e != nil && e.dp != nil {
		e.dp.Close()
	}
}

func newDP(ds *datagen.Dataset, cfg train.Config) (*train.DataParallel, error) {
	return train.NewDataParallelPipelined(ds, cfg, dpReplicas,
		train.PipelineConfig{Depth: dpDepth, CacheBudget: dpCacheBudget})
}

func setupDP(r *run, c *setupClock) (*dpEnv, error) {
	e := &dpEnv{}
	var err error
	c.step(func() {
		if e.ds, err = r.sp.load(); err != nil {
			return
		}
		e.cfg = r.sp.trainConfig(e.ds, r.opt.seed)
		e.dp, err = newDP(e.ds, e.cfg)
	})
	for i := 0; i < r.warm() && err == nil; i++ {
		c.step(func() { _, err = e.dp.RunIteration() })
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// verifyTrainDP checks the data-parallel path against an unpartitioned
// single-device session: the loader draws the batch stream a sequential
// session of the same seed draws, so losses must agree within 1e-3
// iteration by iteration, with every replica's peak inside its budget.
func verifyTrainDP(r *run) error {
	ds, err := r.sp.load()
	if err != nil {
		return err
	}
	cfg := r.sp.trainConfig(ds, r.opt.seed)
	dp, err := newDP(ds, cfg)
	if err != nil {
		return err
	}
	defer dp.Close()
	whole := cfg
	whole.System, whole.MemBudget = train.DGL, 64*device.GB
	whole.CommOverlap, whole.ZeRO1 = false, false
	d, err := train.NewSession(ds, whole)
	if err != nil {
		return err
	}
	defer d.Close()
	var last float32
	for i := 0; i < r.verifyCount(); i++ {
		res, err := dp.RunIteration()
		if err != nil {
			return err
		}
		rd, err := d.RunIteration()
		if err != nil {
			return err
		}
		r.check(absDiff(res.Loss, rd.Loss) <= 1e-3, "iteration %d: data-parallel loss %v, unpartitioned loss %v", i, res.Loss, rd.Loss)
		r.check(res.Peak <= cfg.MemBudget, "iteration %d: peak %d over budget %d", i, res.Peak, cfg.MemBudget)
		last = res.Loss
	}
	r.logf("verified %d iterations: data-parallel = unpartitioned (1e-3), peak <= budget; final loss %v\n", r.verifyCount(), last)
	return nil
}

func runTrainDP(r *run) error {
	if err := verifyTrainDP(r); err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	env, err := setupMedian(r, func(c *setupClock) (*dpEnv, error) { return setupDP(r, c) }, (*dpEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	if r.opt.trace {
		return traceTrainDP(r, env)
	}
	st, err := r.measureOps(r.window(1), func() (opResult, error) {
		res, err := env.dp.RunIteration()
		if err != nil {
			return opResult{}, err
		}
		return iterResult(&res.IterationResult), nil
	})
	if err != nil {
		return err
	}
	r.reportOps(st, r.sp.batch)
	return nil
}
