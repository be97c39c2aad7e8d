package main

import (
	"fmt"
	"runtime"
	"time"

	"buffalo/internal/block"
	"buffalo/internal/bucket"
	"buffalo/internal/datagen"
	"buffalo/internal/graph"
	"buffalo/internal/memest"
	"buffalo/internal/sampling"
	"buffalo/internal/schedule"
)

// planBudgets are the device budgets one batch is planned against, as
// divisors of the whole batch's estimate: K comes out near 4, 14 and 34.
var planBudgets = []int64{2, 4, 8}

// planEnv is the planner driven from public functions only: a batch stream,
// the estimator, the scheduler and one block generator per group, all on
// recycled storage. No model, tensor or device is built.
type planEnv struct {
	ds       *datagen.Dataset
	spec     memest.ModelSpec
	clusterC float64
	stream   *sampling.Stream
	batch    sampling.Batch
	est      memest.Estimator
	sched    schedule.Scratch
	bsc      bucket.Scratch
	gens     []*block.GenScratch
	nodes    []graph.NodeID
	seen     map[graph.NodeID]int
	tr       *tracer
	planned  plannerCounts // over the batches recorded with spans on
}

// planOut is one batch through all budgets.
type planOut struct {
	host, sim  time.Duration // sim: scheduling + block generation, the phases the simulated clock charges
	k          []int
	covered    bool
	fits       bool
	exploded   int
	imbalance  series
	edges      int64
	nodes      int64
	blockEdges int64
	blockNodes int64
	wholeNodes int64
	buckets    int
	schedPerK  series
}

func setupPlan(sp *spec, seed int64, warm int, c *setupClock) (*planEnv, error) {
	var e *planEnv
	var err error
	c.step(func() {
		var ds *datagen.Dataset
		if ds, err = sp.load(); err != nil {
			return
		}
		e = &planEnv{
			ds: ds, spec: memest.SpecFromConfig(sp.modelConfig(ds, seed)),
			clusterC: ds.Graph.ApproxClusteringCoefficient(sampleSeed(seed), 2000),
			stream:   sampling.NewStream(ds.Graph, sp.batch, sp.fanouts, sampleSeed(seed)),
			seen:     map[graph.NodeID]int{},
		}
	})
	for i := 0; i < warm && err == nil; i++ {
		c.step(func() { _, err = e.next(false) })
	}
	return e, err
}

// next plans the stream's next batch against every budget. With verify set
// (never in a measured window) it also checks that each plan covers every
// seed once and that each group's estimate fits its budget.
func (e *planEnv) next(verify bool) (planOut, error) {
	tr := e.tr
	out := planOut{covered: true, fits: true}
	root := tr.begin("bench.plan_batch")
	defer tr.end(root)

	s := tr.begin("sampling.next_into")
	err := e.stream.NextInto(&e.batch)
	tr.end(s)
	if err != nil {
		return out, err
	}
	b := &e.batch
	s = tr.begin("memest.new_into")
	err = memest.NewInto(&e.est, e.spec, b, e.clusterC)
	var whole int64
	if err == nil {
		whole, err = e.est.BatchMem(b)
	}
	tr.end(s)
	if err != nil {
		return out, err
	}
	counting := tr.active()
	if counting {
		e.planned.addSampled(b)
		s = tr.begin("bucket.bucketize_into") // runs inside Schedule too; timed alone here (~0.02 ms)
		e.planned.buckets += len(bucket.BucketizeInto(&e.bsc, b).Buckets)
		tr.end(s)
	}
	for _, div := range planBudgets {
		limit := whole / div
		ts := time.Now()
		s = tr.begin("schedule.schedule")
		plan, err := schedule.Schedule(b, &e.est, schedule.Options{MemLimit: limit, Scratch: &e.sched})
		tr.end(s)
		dSched := time.Since(ts)
		if err != nil {
			return out, err
		}
		out.sim += dSched
		out.k = append(out.k, plan.K)
		if counting {
			e.planned.addPlan(b, plan, dSched)
		}
		for len(e.gens) < len(plan.Groups) {
			e.gens = append(e.gens, &block.GenScratch{})
		}
		if verify {
			groups := make([][]graph.NodeID, len(plan.Groups))
			for i, g := range plan.Groups {
				groups[i] = g.Nodes()
			}
			out.covered = out.covered && coversOnce(e.seen, b.Seeds, groups)
			out.fits = out.fits && plan.MaxEstimate() <= limit
		}
		for i, g := range plan.Groups {
			e.nodes = g.AppendNodes(e.nodes[:0])
			tb := time.Now()
			s = tr.begin("block.generate_into")
			mb, err := block.GenerateInto(e.gens[i], b, e.nodes, nil)
			tr.end(s)
			out.sim += time.Since(tb)
			if err != nil {
				return out, err
			}
			out.covered = out.covered && len(mb.Outputs) == len(e.nodes)
			if counting {
				e.planned.addBlocks(mb)
			}
		}
	}
	return out, nil
}

func runPlan(r *run) error {
	// Verification on a stream of its own, before set-up is timed.
	v, err := setupPlan(r.sp, r.opt.seed, 0, &setupClock{cal: r.cal})
	if err != nil {
		return err
	}
	for i := 0; i < r.verifyCount(); i++ {
		out, err := v.next(true)
		if err != nil {
			return fmt.Errorf("verification: %w", err)
		}
		r.check(out.covered, "batch %d: a plan does not cover each seed exactly once", i)
		r.check(out.fits, "batch %d: a group's estimate exceeds its budget", i)
		if i == r.verifyCount()-1 {
			r.logf("verified %d batches x %d budgets: every plan covers each seed once and fits; last K %v\n", i+1, len(planBudgets), out.k)
		}
	}

	env, err := setupMedian(r, func(c *setupClock) (*planEnv, error) { return setupPlan(r.sp, r.opt.seed, r.warm(), c) }, func(*planEnv) {})
	if err != nil {
		return err
	}
	share := 1.0
	if r.opt.trace {
		env.tr = newTracer(r.sp.name)
		share = 0.8
	}
	var lastK []int
	var spansOn []bool // per sample: were spans recorded for that batch
	st, err := r.measureOps(r.window(share), func() (opResult, error) {
		if r.opt.trace { // spans on every other batch; the rest give the untraced time
			env.tr.on = len(spansOn)%2 == 0
			env.tr.id = len(spansOn) / 2
		}
		out, err := env.next(false)
		if err != nil {
			return opResult{}, err
		}
		var kSum float64
		for _, k := range out.k {
			kSum += float64(k)
		}
		lastK = out.k
		spansOn = append(spansOn, env.tr.active())
		return opResult{simHost: out.sim, k: kSum / float64(len(out.k))}, nil
	})
	if err != nil {
		return err
	}
	if !r.opt.trace {
		r.reportOps(st, r.sp.batch)
		r.logf("plan batches/s %.3f at reference speed   K per budget (last batch) %v\n", 1000/st.ref.median(), lastK)
		return nil
	}

	// Traced run: per-layer rows from the batches with spans on, held against
	// those batches' own host time.
	var on, off series
	for i, v := range st.raw {
		if spansOn[i] {
			on.add(v)
		} else {
			off.add(v)
		}
	}
	it := perIter(env.tr.busyByID(), len(on))
	r.plannerRows(it, &env.planned)
	r.set("bench.trace_overhead_frac", ratio(on.median(), off.median())-1)
	r.hostOpRows(st, len(st.raw))
	runtime.KeepAlive(env) // the heap reading counts the planner's dataset and scratch
	if err := r.standaloneRows(nil, 0, 0); err != nil {
		return err
	}
	r.budgetTable(it, on)
	return r.writeTrace(env.tr)
}
