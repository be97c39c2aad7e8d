package experiments

import (
	"fmt"

	"buffalo/internal/gnn"
	"buffalo/internal/train"
)

// Scaleout sweeps the pipelined data-parallel trainer across replica counts
// to answer the two questions §V-G leaves open past 2 GPUs: where does the
// single background planner saturate (one K-search + block generation feeding
// n consumers whose per-replica compute shrinks as 1/n), and how much of the
// growing all-reduce bill can bucketed overlap hide behind the backward tail.
//
// Every row runs the pipelined loader with the bucketed overlapped reduce;
// "pool off" rows use one planner worker, "pool on" rows a plan-ahead pool
// (width = replica count, capped at 4) dealt batches round-robin, so plans
// still arrive in sampling order. One extra row repeats the
// largest common replica count with CommOverlap off — the monolithic
// synchronous reduce — to price the overlap end to end.
//
// Jitter-proofing mirrors multigpu-pipeline: each configuration runs alone
// (background planner workers would steal cycles from a concurrent
// configuration), iteration 0 is an uncounted warm-up, and the headline
// overlap note is computed from the overlap run's own counterfactual
// (critical path + hidden comm = the same run with every bucket exposed), so
// it cannot be washed out by host-timing drift between separate runs.
func Scaleout(opts Options) (*Table, error) {
	ds, err := load("ogbn-products", opts.Seed)
	if err != nil {
		return nil, err
	}
	p := quickProfile("ogbn-products", opts)
	t := &Table{
		ID:         "scaleout",
		Title:      "Replica scale-out: plan-ahead planner pool + bucketed overlapped all-reduce (OGBN-products)",
		PaperClaim: "beyond-paper: past 2 replicas the single planner and the synchronous all-reduce are the next two serial bottlenecks",
		Headers: []string{"config", "K", "exposed-plan", "loading", "compute",
			"comm-busy", "exposed-comm", "hidden-comm", "critical-path"},
	}
	gpuCounts := []int{1, 2, 4, 8}
	iters := 12
	if opts.Quick {
		gpuCounts = []int{1, 2, 4}
		iters = 8
	}
	// K is pinned: the sweep compares identical plans across replica counts
	// and pool widths, so row deltas are pure timing (the free K-search would
	// add its own cold-start noise to every row). Planning still carries the
	// full schedule + block-generation cost the pool parallelizes. The budget
	// is 4x the memory-wall profile so the pinned K is feasible — this
	// experiment measures scale-out bottlenecks, not the wall.
	cfg := train.Config{System: train.Buffalo,
		Model: sageConfig(ds, gnn.Mean, 2, p.hidden), Fanouts: p.fanouts,
		BatchSize: p.batch, MemBudget: 4 * p.budget, Seed: opts.Seed, Obs: opts.Obs,
		MicroBatches: 4, CommOverlap: true}

	poolWidth := func(gpus int) int {
		if gpus > 4 {
			return 4
		}
		return gpus
	}
	// Per replica count: a single-planner row, and — where the pool is
	// actually wider than one worker — a pool row. A pool of width 1 is
	// config-identical to pool-off, so re-running it would only print host
	// jitter as a bogus "gain".
	offRuns := make(map[int]*mgRun)
	onRuns := make(map[int]*mgRun)
	var runs []*mgRun
	for _, g := range gpuCounts {
		off := &mgRun{label: fmt.Sprintf("%d gpu pool-off", g), gpus: g,
			pcfg: &train.PipelineConfig{Depth: 2, PlanAhead: 1}}
		offRuns[g] = off
		runs = append(runs, off)
		if w := poolWidth(g); w > 1 {
			on := &mgRun{label: fmt.Sprintf("%d gpu pool-on(%d)", g, w), gpus: g,
				pcfg: &train.PipelineConfig{Depth: 2, PlanAhead: w}}
			onRuns[g] = on
			runs = append(runs, on)
		}
	}
	// The overlap baseline: largest common replica count, pool on, but the
	// monolithic synchronous reduce.
	noOverlapAt := gpuCounts[len(gpuCounts)-1]
	if noOverlapAt > 4 {
		noOverlapAt = 4
	}
	noOverlap := &mgRun{label: fmt.Sprintf("%d gpu pool-on(%d) no-overlap", noOverlapAt, poolWidth(noOverlapAt)),
		gpus: noOverlapAt,
		pcfg: &train.PipelineConfig{Depth: 2, PlanAhead: poolWidth(noOverlapAt)}}
	runs = append(runs, noOverlap)

	for _, r := range runs {
		rcfg := cfg
		if r == noOverlap {
			rcfg.CommOverlap = false
		}
		dp, err := train.NewDataParallelPipelined(ds, rcfg, r.gpus, *r.pcfg)
		if err != nil {
			return nil, err
		}
		// A pool of W planners plans its first W iterations cold (no warm
		// state, pipeline filling, caches empty), so the uncounted warm-up
		// covers W iterations; every row then counts the same number of
		// steady-state iterations.
		warm := r.pcfg.PlanAhead
		if warm < 1 {
			warm = 1
		}
		for i := 0; i < iters+warm; i++ {
			res, err := dp.RunIteration()
			if err != nil {
				dp.Close()
				return nil, err
			}
			if i >= warm {
				r.acc.add(res)
			}
		}
		if err := dp.Shutdown(); err != nil {
			return nil, err
		}
		t.AddRow(r.label, r.acc.k, r.acc.exposedPlan, r.acc.loading, r.acc.compute,
			r.acc.comm, r.acc.exposedComm, r.acc.hiddenComm, r.acc.critical)
	}

	// Planner-saturation knee: the execution window one planner can hide
	// behind shrinks roughly as 1/n (per-replica compute and loading split
	// across replicas) while the planning bill stays constant, so a wider
	// pool buys more the more replicas there are. The knee is the first
	// replica count where the pool's end-to-end gain clears 5% — below it one
	// planner keeps up and the pool is pure overhead, beyond it the single
	// planner is the scaling bottleneck.
	knee := 0
	for _, g := range gpuCounts {
		on := onRuns[g]
		if on == nil {
			continue
		}
		off := offRuns[g]
		gain := 100 * (1 - float64(on.acc.critical)/float64(off.acc.critical))
		share := 100 * float64(off.acc.exposedPlan) / float64(off.acc.critical)
		if knee == 0 && gain > 5 {
			knee = g
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%d gpu: pool gain %.1f%% (single-planner exposed planning was %.1f%% of critical path)",
			g, gain, share))
	}
	if knee > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"planner-saturation knee at %d replicas: the plan-ahead pool's end-to-end gain first clears 5%% there, and widens with every further replica", knee))
	} else {
		t.Notes = append(t.Notes,
			"no planner-saturation knee in this sweep: one planner kept up at every replica count")
	}

	// Overlap gain, counterfactual form: the overlap run with every bucket
	// exposed would cost critical + hiddenComm; hiddenComm > 0 therefore
	// means strictly better end-to-end, independent of host jitter. The
	// measured no-overlap row is printed above for the honest cross-check.
	ovl := &onRuns[noOverlapAt].acc
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d gpu bucketed overlap: hid %v of %v all-reduce busy time → %.1f%% faster than the same run fully exposed (measured no-overlap row: %v critical path)",
		noOverlapAt, ovl.hiddenComm, ovl.comm,
		100*(1-float64(ovl.critical)/float64(ovl.critical+ovl.hiddenComm)),
		noOverlap.acc.critical))
	t.Notes = append(t.Notes,
		"critical-path = exposed planning + exposed copies + compute + exposed comm; comm-busy = interconnect time, split into exposed + hidden",
		fmt.Sprintf("all rows pipelined loader depth 2, bucketed reduce %d KB buckets (default); pool-on width = min(replicas, 4)", cfg.EffectiveBucketBytes()>>10))
	return t, nil
}
