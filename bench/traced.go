package main

import (
	"fmt"
	"sort"
	"time"

	"buffalo/internal/block"
	"buffalo/internal/gnn"
	"buffalo/internal/sampling"
	"buffalo/internal/schedule"
	"buffalo/internal/train"
)

// The traced run: per-layer metrics and the budget table. None of its
// numbers are end-to-end numbers.

// counted lists the replay's calls that are steps of the iteration itself;
// their self times are what the budget table adds up. The other spans time
// work done beside the iteration (see replayer).
var counted = map[string]bool{
	"sampling.next_into": true, "memest.new_into": true, "schedule.schedule": true,
	"block.generate_into": true, "datagen.gather": true, "device.stage": true,
	"device.alloc_layer": true, "device.free": true, "gnn.forward": true,
	"gnn.backward": true, "nn.zero_grad": true, "nn.loss": true, "nn.opt_step": true,
}

// perIter turns busy[name][id] into one series per span name over the n
// operations recorded with spans on (ids 0..n-1), in ms.
func perIter(busy map[string]map[int]time.Duration, n int) map[string]series {
	out := map[string]series{}
	for name, byID := range busy {
		s := make(series, n)
		for id := range s {
			s[id] = ms(byID[id])
		}
		out[name] = s
	}
	return out
}

// deviceRows fills the device.* and memest.err rows from iteration results
// (the public result structs), per iteration.
func (r *run) deviceRows(st *opStats, results []train.IterationResult, h2dBytes int64, collectives int64) {
	var transfer, compute, comm, exposed, hidden series
	for i := range results {
		res := &results[i]
		transfer.addDur(res.Phases.DataLoading)
		compute.addDur(res.Phases.GPUCompute)
		comm.addDur(res.Phases.Communication)
		exposed.addDur(res.ExposedComm)
		hidden.addDur(res.HiddenTransfer)
	}
	n := float64(len(results))
	r.set("device.sim_transfer_ms_per_iter", transfer.mean())
	r.set("device.sim_compute_ms_per_iter", compute.mean())
	r.set("device.sim_comm_ms_per_iter", comm.mean())
	r.set("device.sim_exposed_comm_ms_per_iter", exposed.mean())
	r.set("device.sim_hidden_transfer_ms_per_iter", hidden.mean())
	r.set("device.h2d_bytes_per_iter", ratio(float64(h2dBytes), n))
	r.set("device.collective_calls_per_iter", ratio(float64(collectives), n))
	r.set("device.peak_frac", ratio(float64(st.peak), float64(r.sp.budget)))
	r.set("memest.err_pct_p50", st.errPct.median())
	r.set("memest.err_pct_p90", st.errPct.quantile(0.9))
	r.hostOpRows(st, len(st.raw))
}

func (r *run) standaloneRows(shapes []gemmShape, poolRows, poolCols int) error {
	ab, atb, abt := gemmGFLOPS(shapes)
	r.set("tensor.matmul_gflops", ab)
	r.set("tensor.matmul_atb_gflops", atb)
	r.set("tensor.matmul_abt_gflops", abt)
	r.set("tensor.pool_get_put_ns", poolGetPutNS(poolRows, poolCols))
	ns, err := ledgerNSPerAlloc()
	if err != nil {
		return err
	}
	r.set("device.ledger_ns_per_alloc", ns)
	return nil
}

func traceTrainSeq(r *run, env *seqEnv) error {
	sess, cfg := env.sess, env.cfg

	// Untraced reference: the same session's plain iterations.
	var results []train.IterationResult
	pre := sess.GPU.Stats()
	st, err := r.measureOps(r.window(0.2), func() (opResult, error) {
		res, err := sess.RunIteration()
		if err != nil {
			return opResult{}, err
		}
		results = append(results, *res)
		return iterResult(res), nil
	})
	if err != nil {
		return err
	}
	r.deviceRows(st, results, sess.GPU.Stats().Transferred-pre.Transferred, 0)

	// Replay: every iteration from the layers' public functions, then the
	// same batch through the session. Spans are recorded on even iterations
	// only; the odd ones give the replay's untraced time.
	tr := newTracer(r.sp.name)
	rp, err := newReplayer(env.ds, cfg, dpCacheBudget, tr)
	if err != nil {
		return err
	}
	n := 0 // iterations recorded with spans on; their ids are 0..n-1
	var wallOn, wallOff series
	t0 := time.Now()
	for i := 0; time.Since(t0) < r.window(0.5) || n < 2; i++ {
		tr.on, tr.id = i%2 == 0, n
		root := tr.begin("bench.traced_iter")
		s := tr.begin("bench.sample_batch")
		b, err := sess.SampleBatch()
		tr.end(s)
		if err != nil {
			return err
		}
		if err := rp.syncFrom(sess.Model); err != nil {
			return err
		}
		t := time.Now()
		out, err := rp.iteration(b)
		wall := time.Since(t)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		s = tr.begin("train.run_iteration_on")
		res, err := sess.RunIterationOn(b)
		tr.end(s)
		tr.end(root)
		r.attempted++
		if err != nil {
			return err
		}
		r.check(absDiff(out.loss, res.Loss) <= 1e-5 && out.k == res.K,
			"traced iteration %d: replay loss %v K %d, session loss %v K %d", i, out.loss, out.k, res.Loss, res.K)
		r.check(out.covered, "traced iteration %d: plan does not cover each seed exactly once", i)
		if tr.on {
			n++
			wallOn.addDur(wall)
		} else {
			wallOff.addDur(wall)
		}
	}

	it := perIter(tr.busyByID(), n)
	perSec := func(count int64, name string) float64 { return ratio(float64(count), it[name].sum()/1000) }
	r.plannerRows(it, &rp.planned)
	r.set("datagen.gather_ms_per_iter", it["datagen.gather"].median())
	r.set("datagen.gather_gb_per_s", perSec(rp.gatherBytes, "datagen.gather")/1e9)
	cs := rp.cache.Stats()
	r.set("pipeline.cache_hit_frac", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)))
	r.set("pipeline.cache_evictions_per_iter", float64(cs.Evictions)/float64(n+len(wallOff)))
	r.set("pipeline.cache_lookup_ns", ratio(1e6*it["pipeline.cache_lookup"].sum(), float64(rp.cacheLookups)))
	r.set("pipeline.cache_admit_ns", ratio(1e6*it["pipeline.cache_admit"].sum(), float64(rp.cacheAdmits)))
	r.set("gnn.fwd_ms_per_iter", it["gnn.forward"].median())
	r.set("gnn.bwd_ms_per_iter", it["gnn.backward"].median())
	r.set("gnn.fwd_nodes_per_s", perSec(rp.planned.blockNodes, "gnn.forward"))
	r.set("nn.loss_ms_per_iter", it["nn.loss"].median())
	r.set("nn.opt_step_ms_per_iter", it["nn.opt_step"].median())
	ps := sess.PoolStats()
	r.set("tensor.pool_hit_frac", ratio(float64(ps.Hits), float64(ps.Hits+ps.Misses)))
	r.set("bench.trace_overhead_frac", wallOn.median()/wallOff.median()-1)

	// Stand-alone kernels at the median micro-batch's per-layer shapes.
	m := cfg.Model
	rows0 := int(rp.layerDst[0].median())
	shapes := make([]gemmShape, m.Layers)
	for l := range shapes {
		in, width := m.Hidden, m.Hidden
		if l == 0 {
			in = m.InDim
		}
		if l == m.Layers-1 {
			width = m.OutDim
		}
		shapes[l] = gemmShape{int(rp.layerDst[l].median()), in, width}
	}
	if err := r.standaloneRows(shapes, rows0, m.InDim); err != nil {
		return err
	}
	if m.Aggregator == gnn.LSTM {
		r.set("nn.lstm_seq_ms", lstmSeqMS(rows0, m.InDim, cfg.Fanouts[len(cfg.Fanouts)-1]))
	}
	if r.sp.recorderCost {
		over, err := recorderOverhead(r, r.window(0.15))
		if err != nil {
			return err
		}
		r.set("obs.recorder_overhead_frac", over)
	}

	// The iteration the layers are held against is the session's own on the
	// same batch, a moment later: SampleBatch + RunIterationOn.
	host := make(series, n)
	for i := range host {
		host[i] = it["bench.sample_batch"][i] + it["train.run_iteration_on"][i]
	}
	r.logf("plain RunIteration earlier in the run: median %.3f ms over %d\n", st.raw.median(), len(st.raw))
	r.budgetTable(it, host)
	return r.writeTrace(tr)
}

// plannerCounts adds up, over the operations recorded with spans on, the
// work the planner layers did: what the sampling, bucket, schedule and block
// rows divide their busy time by.
type plannerCounts struct {
	ops                                int
	sampledEdges, sampledNodes         int64
	blockEdges, blockNodes, wholeNodes int64
	buckets, exploded                  int
	k, imbalance, msPerK               series // one entry per plan
}

func frontierNodes(b *sampling.Batch) int64 {
	var n int64
	for h := 0; h <= b.Layers(); h++ {
		n += int64(len(b.Frontier(h)))
	}
	return n
}

func (c *plannerCounts) addSampled(b *sampling.Batch) {
	c.ops++
	c.sampledEdges += b.NumEdges()
	c.sampledNodes += frontierNodes(b)
}

// addPlan records one K-search over batch b that took d.
func (c *plannerCounts) addPlan(b *sampling.Batch, plan *schedule.Plan, d time.Duration) {
	c.wholeNodes += frontierNodes(b)
	c.k.add(float64(plan.K))
	c.imbalance.add(plan.Imbalance())
	c.msPerK.add(ms(d) / float64(plan.K))
	if plan.Exploded {
		c.exploded++
	}
}

func (c *plannerCounts) addBlocks(mb *block.MicroBatch) {
	c.blockNodes += mb.NumNodes()
	for _, blk := range mb.Blocks {
		c.blockEdges += blk.NumEdges()
	}
}

// plannerRows fills the planner layers' rows from their spans and counts.
func (r *run) plannerRows(it map[string]series, c *plannerCounts) {
	n := float64(c.ops)
	perSec := func(count int64, name string) float64 { return ratio(float64(count), it[name].sum()/1000) }
	r.setN("sampling.busy_ms_per_iter", it["sampling.next_into"].median(), c.ops)
	r.set("sampling.edges_per_s", perSec(c.sampledEdges, "sampling.next_into"))
	r.set("sampling.nodes_per_iter", float64(c.sampledNodes)/n)
	r.set("bucket.busy_ms_per_iter", it["bucket.bucketize_into"].median())
	r.set("bucket.buckets_per_batch", float64(c.buckets)/n)
	r.set("bucket.explosion_frac", ratio(float64(c.exploded), float64(len(c.k))))
	r.set("memest.busy_ms_per_iter", it["memest.new_into"].median())
	r.set("schedule.busy_ms_per_iter", it["schedule.schedule"].median())
	r.set("schedule.ms_per_k", c.msPerK.mean())
	r.set("schedule.k_mean", c.k.mean())
	r.set("schedule.imbalance_p50", c.imbalance.median())
	r.set("schedule.redundancy_ratio", ratio(float64(c.blockNodes), float64(c.wholeNodes)))
	r.set("block.busy_ms_per_iter", it["block.generate_into"].median())
	r.set("block.edges_per_s", perSec(c.blockEdges, "block.generate_into"))
	r.set("block.nodes_per_iter", float64(c.blockNodes)/n)
}

// budgetTable prints the layers' median self times per operation, their sum,
// and what the sum leaves of the operation, and fills the two train.* shares.
// host[i] is the host time of the i-th operation recorded with spans on —
// the same batch through the session, or the planned batch itself — so each
// residual compares two measurements taken within one operation of each
// other, whatever the host's speed was at that moment; the row is their
// median.
func (r *run) budgetTable(it map[string]series, host series) {
	layerMS := map[string]float64{}
	beside := map[string]float64{}
	sums := make(series, len(host))
	for name, s := range it {
		if counted[name] {
			layerMS[layerOf(name)] += s.median()
			for i, v := range s {
				sums[i] += v
			}
		} else if l := layerOf(name); l != "bench" && l != "train" {
			beside[l] += s.median()
		}
	}
	var residual series
	for i, h := range host {
		residual.add((h - sums[i]) / h)
	}
	hostIter := host.median()
	r.set("train.planning_share", (layerMS["memest"]+layerMS["schedule"]+layerMS["block"])/hostIter)
	r.set("train.residual_frac", residual.median())
	r.logf("budget table (host ms per operation, medians over the %d operations with spans on)\n", len(host))
	for _, l := range sortedKeys(layerMS) {
		r.logf("  %-10s %9.3f  %5.1f%%\n", l, layerMS[l], 100*layerMS[l]/hostIter)
	}
	r.logf("  %-10s %9.3f  %5.1f%%   per operation, median\n", "sum", sums.median(), 100*sums.median()/hostIter)
	r.logf("  %-10s %9.3f           the same operations' host time\n", "host_iter", hostIter)
	r.logf("  %-10s %9.3f  %5.1f%%   train.residual_frac: median of (host - sum) / host per operation\n",
		"residual", residual.median()*hostIter, 100*residual.median())
	for _, l := range sortedKeys(beside) {
		r.logf("  %-10s %9.3f           beside the operation, not in the sum\n", l, beside[l])
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (r *run) writeTrace(tr *tracer) error {
	path, err := tr.writeChrome(r.opt.outDir, r.opt.seed)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	r.logf("wrote %d spans to %s\n", len(tr.spans), path)
	return nil
}

// traceTrainDP wraps each data-parallel iteration in a span and takes the
// layer rows from the public result structs: Phases, CacheStats,
// device.Stats, Cluster.Collectives and PoolStats. The planner runs in a
// background stage there, so its phases are busy time that overlaps the
// iteration, not a share of it, and no budget table is printed.
func traceTrainDP(r *run, env *dpEnv) error {
	dp := env.dp
	tr := newTracer(r.sp.name)
	var results []train.IterationResult
	var preXfer int64
	for _, s := range dp.Stats() {
		preXfer += s.Transferred
	}
	preColl := dp.Cluster.Collectives()
	preCache := dp.CacheStats()
	st, err := r.measureOps(r.window(0.8), func() (opResult, error) {
		tr.id = len(results)
		s := tr.begin("train.run_iteration")
		res, err := dp.RunIteration()
		tr.end(s)
		if err != nil {
			return opResult{}, err
		}
		results = append(results, res.IterationResult)
		return iterResult(&res.IterationResult), nil
	})
	if err != nil {
		return err
	}
	var xfer int64
	for _, s := range dp.Stats() {
		xfer += s.Transferred
	}
	coll := dp.Cluster.Collectives()
	r.deviceRows(st, results, xfer-preXfer,
		coll.ReduceScatterCount+coll.AllGatherCount-preColl.ReduceScatterCount-preColl.AllGatherCount)
	var sched, blockGen, planning, nodes series
	for i := range results {
		res := &results[i]
		sched.addDur(res.Phases.Scheduling)
		blockGen.addDur(res.Phases.BlockGen)
		planning.addDur(res.Phases.Planning())
		nodes.add(float64(res.TotalNodes))
	}
	r.set("schedule.busy_ms_per_iter", sched.median())
	r.set("schedule.k_mean", st.k.mean())
	r.set("schedule.ms_per_k", sched.sum()/st.k.sum())
	r.set("block.busy_ms_per_iter", blockGen.median())
	r.set("block.nodes_per_iter", nodes.mean())
	r.set("train.planning_share", planning.median()/st.raw.median())
	cs := dp.CacheStats()
	r.set("pipeline.cache_hit_frac", ratio(float64(cs.Hits-preCache.Hits), float64(cs.Hits+cs.Misses-preCache.Hits-preCache.Misses)))
	r.set("pipeline.cache_evictions_per_iter", float64(cs.Evictions-preCache.Evictions)/float64(len(results)))
	ps := dp.PoolStats()
	r.set("tensor.pool_hit_frac", ratio(float64(ps.Hits), float64(ps.Hits+ps.Misses)))
	if err := r.standaloneRows(nil, 0, 0); err != nil {
		return err
	}
	return r.writeTrace(tr)
}
