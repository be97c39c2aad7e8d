package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupClock adds up one set-up's steps, each bracketed by calibration
// readings like a measured operation.
type setupClock struct {
	cal      *calibrator
	raw, ref time.Duration
}

func (c *setupClock) step(op func()) {
	raw, ref := c.cal.timeOp(op)
	c.raw += raw
	c.ref += ref
}

// setupMedian runs build three times, keeps the last result for the measured
// window and drops the others, and reports the median as setup_s: dataset
// generation, constructors and warm-up, at the reference host speed.
func setupMedian[T any](r *run, build func(c *setupClock) (T, error), drop func(T)) (T, error) {
	n := 3
	if r.opt.trace || r.opt.quick {
		n = 1
	}
	var ref, raw series
	var last T
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(last)
		}
		c := &setupClock{cal: r.cal}
		v, err := build(c)
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		ref.add(c.ref.Seconds())
		raw.add(c.raw.Seconds())
		last = v
	}
	r.setN("setup_s", ref.median(), n)
	r.logf("set-up: median of %d  %.3f s at reference speed  (%.3f s as timed)\n", n, ref.median(), raw.median())
	return last, nil
}

// warm and verifyCount are the workload's warm-up and verification lengths,
// cut short for the smoke test.
func (r *run) warm() int {
	if r.opt.quick {
		return 1
	}
	return r.sp.warm
}

func (r *run) verifyCount() int {
	if r.opt.quick {
		return 1
	}
	return 5
}

// opResult is what one measured operation reports beside its time.
type opResult struct {
	// The operation's time on the simulated device clock, split into the
	// part the simulator derives from measured host time (kernel time is
	// host time / 100, planning is host time) and the part it computes from
	// byte counts (transfers, collectives). Only the first moves with the
	// host's speed.
	simHost, simFixed time.Duration
	k                 float64
	predicted, peak   int64
}

// opStats collects one sample per operation (iteration, planned batch or
// offline inference call) in the measured window.
type opStats struct {
	raw    series // host wall ms, as timed
	ref    series // host wall ms at the reference host speed
	sim    series // simulated-clock ms, host-derived part at the reference speed
	k      series
	errPct series // |predicted peak - peak| / peak, percent
	peak   int64

	mallocs uint64 // heap allocations during the window
}

func (st *opStats) add(raw, ref time.Duration, res opResult) {
	st.raw.addDur(raw)
	st.ref.addDur(ref)
	scale := float64(ref) / float64(raw)
	st.sim.add(ms(res.simFixed) + ms(res.simHost)*scale)
	st.k.add(res.k)
	if res.peak > 0 {
		st.errPct.add(errPct(res.predicted, res.peak))
	}
	if res.peak > st.peak {
		st.peak = res.peak
	}
}

func mallocCount() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// hostOpRows fills the traced run's train.host_* rows from the operations it
// ran without spans: raw times, allocations, and the live heap after a
// collection — what the open session, its pools and the dataset retain.
func (r *run) hostOpRows(st *opStats, ops int) {
	r.setN("train.host_op_ms_p50", st.raw.median(), len(st.raw))
	r.setN("train.host_op_ms_p90", st.raw.quantile(0.9), len(st.raw))
	r.set("train.host_allocs_per_op", float64(st.mallocs)/float64(ops))
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("train.host_heap_mb", float64(m.HeapAlloc)/(1<<20))
}

// measureOps calls op until d has passed (and at least three times). An
// operation that returns an error counts as failed, not as a sample.
func (r *run) measureOps(d time.Duration, op func() (opResult, error)) (*opStats, error) {
	st := &opStats{}
	m0 := mallocCount()
	t0 := time.Now()
	for time.Since(t0) < d || len(st.raw) < 3 {
		var res opResult
		var err error
		raw, ref := r.cal.timeOp(func() { res, err = op() })
		r.attempted++
		if err != nil {
			r.failed++
			r.logf("operation failed: %v\n", err)
			if r.failed > 20 {
				break
			}
			continue
		}
		st.add(raw, ref, res)
	}
	st.mallocs = mallocCount() - m0
	if len(st.raw) == 0 {
		return nil, fmt.Errorf("no operation succeeded")
	}
	r.check(st.peak <= r.sp.budget || r.sp.budget == 0, "device peak %d exceeds the budget %d", st.peak, r.sp.budget)
	return st, nil
}

// reportOps fills the end-to-end metrics every workload shares from its
// closed-loop operations. The p90 is printed, and reported by the traced run
// as train.host_op_ms_p90, but is not an end-to-end metric: a slow spell of
// the host moved it by 40% between runs, more than any bound allows.
func (r *run) reportOps(st *opStats, seedsPerOp int) {
	n := len(st.raw)
	r.setN("host_seeds_per_s", 1000*float64(seedsPerOp)/st.ref.median(), n)
	r.setN("sim_op_ms_p50", st.sim.median(), n)
	r.setN("k_mean", st.k.mean(), n)
	r.setN("host_allocs_per_op", float64(st.mallocs)/float64(n), n)
	r.set("good_frac", ratio(float64(r.attempted-r.failed), float64(r.attempted)))
	r.logf("host op ms at reference speed: p50 %.3f  p90 %.3f  max %.3f   as timed: p50 %.3f  p90 %.3f  max %.3f   %d samples, %d beyond p90\n",
		st.ref.median(), st.ref.quantile(0.90), st.ref.max(), st.raw.median(), st.raw.quantile(0.90), st.raw.max(), n, n/10)
	if len(st.errPct) > 0 {
		r.logf("estimate error %%: p50 %.3f  p90 %.3f   peak/budget %.3f\n",
			st.errPct.median(), st.errPct.quantile(0.9), ratio(float64(st.peak), float64(r.sp.budget)))
	}
}
