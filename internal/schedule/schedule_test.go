package schedule

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"buffalo/internal/bucket"
	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/graph"
	"buffalo/internal/memest"
	"buffalo/internal/obs"
	"buffalo/internal/sampling"
)

func setup(t testing.TB, dataset string, seeds int, fanouts []int, agg gnn.Aggregator) (*sampling.Batch, *memest.Estimator) {
	t.Helper()
	ds, err := datagen.Load(dataset, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	sd, err := sampling.UniformSeeds(ds.Graph, seeds, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampling.SampleBatch(ds.Graph, sd, fanouts, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gnn.Config{Arch: gnn.SAGE, Aggregator: agg, Layers: len(fanouts),
		InDim: 64, Hidden: 64, OutDim: 16, Seed: 1}
	est, err := memest.New(memest.SpecFromConfig(cfg),
		memest.ProfileBatch(b, ds.Graph.ApproxClusteringCoefficient(1, 2000)))
	if err != nil {
		t.Fatal(err)
	}
	return b, est
}

// assertValidPlan checks the scheduler's structural invariants: the groups'
// output nodes are disjoint and cover the batch's seeds exactly.
func assertValidPlan(t *testing.T, b *sampling.Batch, p *Plan) {
	t.Helper()
	if p.K != len(p.Groups) || len(p.Estimates) != len(p.Groups) {
		t.Fatalf("plan shape: K=%d groups=%d estimates=%d", p.K, len(p.Groups), len(p.Estimates))
	}
	seen := map[graph.NodeID]bool{}
	total := 0
	for _, g := range p.Groups {
		for _, v := range g.Nodes() {
			if seen[v] {
				t.Fatalf("node %d in two groups", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != len(b.Seeds) {
		t.Fatalf("groups cover %d nodes, want %d", total, len(b.Seeds))
	}
	for _, s := range b.Seeds {
		if !seen[s] {
			t.Fatalf("seed %d missing from plan", s)
		}
	}
}

func TestScheduleWholeBatchFits(t *testing.T) {
	b, est := setup(t, "ogbn-arxiv", 300, []int{10, 25}, gnn.Mean)
	p, err := Schedule(b, est, Options{MemLimit: 100 * device.GB})
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 1 {
		t.Fatalf("huge budget should give K=1, got %d", p.K)
	}
	assertValidPlan(t, b, p)
}

func TestScheduleSplitsUnderPressure(t *testing.T) {
	b, est := setup(t, "ogbn-arxiv", 1000, []int{10, 25}, gnn.LSTM)
	whole, err := est.BatchMem(b)
	if err != nil {
		t.Fatal(err)
	}
	budget := whole / 4
	p, err := Schedule(b, est, Options{MemLimit: budget})
	if err != nil {
		t.Fatal(err)
	}
	if p.K < 2 {
		t.Fatalf("quarter budget should need K >= 2, got %d", p.K)
	}
	assertValidPlan(t, b, p)
	for i, m := range p.Estimates {
		if m > budget {
			t.Fatalf("group %d estimate %d exceeds budget %d", i, m, budget)
		}
	}
	if !p.Exploded {
		t.Error("arxiv under pressure should split the explosion bucket")
	}
}

func TestScheduleBalance(t *testing.T) {
	b, est := setup(t, "ogbn-arxiv", 1500, []int{10, 25}, gnn.LSTM)
	whole, err := est.BatchMem(b)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Schedule(b, est, Options{MemLimit: whole / 6})
	if err != nil {
		t.Fatal(err)
	}
	assertValidPlan(t, b, p)
	// Fig 14 reports 4-6% spread; allow a loose 35% at reproduction scale.
	if im := p.Imbalance(); im > 0.35 {
		t.Errorf("imbalance %.2f too high (estimates %v)", im, p.Estimates)
	}
}

func TestScheduleMinimizesK(t *testing.T) {
	b, est := setup(t, "ogbn-arxiv", 800, []int{10, 25}, gnn.LSTM)
	whole, err := est.BatchMem(b)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Schedule(b, est, Options{MemLimit: whole / 3})
	if err != nil {
		t.Fatal(err)
	}
	// K-1 groups must NOT have been feasible: verify by re-running with
	// KStart pinned below and confirming the same K wins.
	if p.K > 1 {
		p2, err := Schedule(b, est, Options{MemLimit: whole / 3, KStart: p.K - 1, KMax: p.K - 1})
		if err == nil {
			// If a plan exists at K-1 it must violate the budget; Schedule
			// returning one would be a bug.
			for _, m := range p2.Estimates {
				if m > whole/3 {
					t.Fatal("scheduler returned an over-budget plan")
				}
			}
			t.Fatalf("K=%d accepted but scheduler chose K=%d", p.K-1, p.K)
		}
	}
}

func TestScheduleInfeasible(t *testing.T) {
	b, est := setup(t, "ogbn-arxiv", 200, []int{10, 25}, gnn.LSTM)
	if _, err := Schedule(b, est, Options{MemLimit: 1}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("1-byte budget: got %v, want ErrInfeasible", err)
	}
	if _, err := Schedule(b, est, Options{MemLimit: 0}); err == nil || errors.Is(err, ErrInfeasible) {
		t.Fatalf("zero budget: got %v, want an invalid-option error", err)
	}
}

func TestScheduleKStart(t *testing.T) {
	b, est := setup(t, "ogbn-arxiv", 500, []int{10, 25}, gnn.Mean)
	p, err := Schedule(b, est, Options{MemLimit: 100 * device.GB, KStart: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 4 {
		t.Fatalf("KStart=4 with ample budget should yield K=4, got %d", p.K)
	}
	assertValidPlan(t, b, p)
}

func TestMemBalancedGroupingErrors(t *testing.T) {
	b, est := setup(t, "cora", 100, []int{5, 5}, gnn.Mean)
	bk := bucket.Bucketize(b)
	// K above bucket count: empty groups dropped.
	s := search{sc: &Scratch{working: bk.Buckets}, b: b, est: est}
	groups, ests, err := s.group(len(bk.Buckets) + 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != len(bk.Buckets) {
		t.Fatalf("got %d groups for %d buckets", len(groups), len(bk.Buckets))
	}
	if len(ests) != len(groups) {
		t.Fatal("estimates misaligned")
	}
}

func TestDisableRedundancyAblation(t *testing.T) {
	b, est := setup(t, "ogbn-arxiv", 800, []int{10, 25}, gnn.LSTM)
	whole, err := est.BatchMem(b)
	if err != nil {
		t.Fatal(err)
	}
	budget := whole / 3
	aware, err := Schedule(b, est, Options{MemLimit: budget})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Schedule(b, est, Options{MemLimit: budget, DisableRedundancy: true})
	if err != nil {
		t.Fatal(err)
	}
	// Ignoring redundancy (R=1) over-estimates group memory, so the naive
	// plan needs at least as many micro-batches.
	if naive.K < aware.K {
		t.Fatalf("linear estimation chose fewer groups (%d) than redundancy-aware (%d)", naive.K, aware.K)
	}
}

func TestFirstFitGrouping(t *testing.T) {
	b, est := setup(t, "ogbn-arxiv", 800, []int{10, 25}, gnn.LSTM)
	whole, err := est.BatchMem(b)
	if err != nil {
		t.Fatal(err)
	}
	budget := whole / 3
	base := bucket.Bucketize(b)
	// First-fit needs the explosion bucket split to have any chance.
	if target, ok := base.DetectExplosion(); ok {
		base, err = base.ReplaceWithSplit(target, 8, b.Graph)
		if err != nil {
			t.Fatal(err)
		}
	}
	groups, ests, err := FirstFitGrouping(b, base, est, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 {
		t.Fatal("no groups")
	}
	for i, m := range ests {
		if m > budget {
			t.Fatalf("group %d over budget", i)
		}
	}
	if _, _, err := FirstFitGrouping(b, base, est, 1); err == nil {
		t.Fatal("want error when a single bucket exceeds the budget")
	}
}

// Property: for random budgets, plans are valid partitions and respect the
// budget.
func TestQuickSchedulePartition(t *testing.T) {
	b, est := setup(t, "ogbn-arxiv", 600, []int{10, 25}, gnn.LSTM)
	whole, err := est.BatchMem(b)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := whole/8 + rng.Int63n(whole)
		p, err := Schedule(b, est, Options{MemLimit: budget})
		if err != nil {
			return false
		}
		seen := map[graph.NodeID]bool{}
		total := 0
		for gi, g := range p.Groups {
			if p.Estimates[gi] > budget {
				return false
			}
			for _, v := range g.Nodes() {
				if seen[v] {
					return false
				}
				seen[v] = true
				total++
			}
		}
		return total == len(b.Seeds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Scheduling is deterministic: identical batch, estimator and options give
// identical plans (bucket labels, node assignment, estimates).
func TestScheduleDeterministic(t *testing.T) {
	b, est := setup(t, "ogbn-arxiv", 600, []int{10, 25}, gnn.LSTM)
	whole, err := est.BatchMem(b)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MemLimit: whole / 3}
	p1, err := Schedule(b, est, opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Schedule(b, est, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p1.K != p2.K {
		t.Fatalf("K differs: %d vs %d", p1.K, p2.K)
	}
	for i := range p1.Groups {
		n1, n2 := p1.Groups[i].Nodes(), p2.Groups[i].Nodes()
		if len(n1) != len(n2) {
			t.Fatalf("group %d sizes differ", i)
		}
		for j := range n1 {
			if n1[j] != n2[j] {
				t.Fatalf("group %d node %d differs", i, j)
			}
		}
		if p1.Estimates[i] != p2.Estimates[i] {
			t.Fatalf("group %d estimates differ", i)
		}
	}
}

// referenceSchedule is Algorithm 3 written the plain way, the search Schedule
// must be indistinguishable from: every K attempt rebuilds its bucket list
// with the allocating bucket helpers, every placement and every oversized
// probe measures its whole group one-shot through GroupMem, and nothing is
// carried from one K to the next.
func referenceSchedule(b *sampling.Batch, est *memest.Estimator, opts Options) (*Plan, error) {
	groupMem := func(g *bucket.Group) (int64, error) {
		if !opts.DisableRedundancy {
			return est.GroupMem(b, g)
		}
		var total int64
		for _, bu := range g.Buckets {
			total += est.BucketMem(bu.Volume(), bu.Degree)
		}
		return total, nil
	}
	base := bucket.Bucketize(b)
	kmax := opts.KMax
	if kmax <= 0 {
		kmax = base.TotalNodes()
	}
	k := opts.KStart
	if k < 1 {
		k = 1
	}
	if k == 1 {
		whole := &bucket.Group{Buckets: base.Buckets}
		m, err := groupMem(whole)
		if err != nil {
			return nil, err
		}
		if m <= opts.MemLimit {
			return &Plan{K: 1, Groups: []*bucket.Group{whole}, Estimates: []int64{m}}, nil
		}
		// The floor, one below Schedule's ceiling where the two differ, so
		// the plan comparison also checks that the ceiling skips no feasible K.
		if k = int(m / opts.MemLimit); k < 2 {
			k = 2
		}
	}
	for ; k <= kmax; k++ {
		plan := &Plan{K: k}
		working := base
		if target, ok := base.DetectExplosion(); ok {
			split, err := base.ReplaceWithSplit(target, k, b.Graph)
			if err != nil {
				return nil, err
			}
			plan.Exploded = true
			plan.SplitParts = len(split.Buckets) - len(base.Buckets) + 1
			working = split
		}
		for again := true; again; {
			again = false
			for _, bu := range working.Buckets {
				if bu.Volume() <= 1 {
					continue
				}
				m, err := groupMem(&bucket.Group{Buckets: []*bucket.Bucket{bu}})
				if err != nil {
					return nil, err
				}
				if m > opts.MemLimit {
					split, err := working.ReplaceWithSplit(bu, int(m/opts.MemLimit)+1, b.Graph)
					if err != nil {
						return nil, err
					}
					working, again = split, true
					break
				}
			}
		}
		items := make([]weighted, 0, len(working.Buckets))
		for _, bu := range working.Buckets {
			items = append(items, weighted{b: bu, m: est.BucketMem(bu.Volume(), bu.Degree)})
		}
		sort.SliceStable(items, func(i, j int) bool { return items[i].m > items[j].m })
		groups := make([]*bucket.Group, k)
		for i := range groups {
			groups[i] = &bucket.Group{}
		}
		estimates := make([]int64, k)
		for _, it := range items {
			best := 0
			for gi := 1; gi < k; gi++ {
				if estimates[gi] < estimates[best] {
					best = gi
				}
			}
			groups[best].Buckets = append(groups[best].Buckets, it.b)
			m, err := groupMem(groups[best])
			if err != nil {
				return nil, err
			}
			estimates[best] = m
		}
		feasible := true
		for i, g := range groups {
			if len(g.Buckets) == 0 {
				continue
			}
			plan.Groups = append(plan.Groups, g)
			plan.Estimates = append(plan.Estimates, estimates[i])
			feasible = feasible && estimates[i] <= opts.MemLimit
		}
		if feasible {
			return plan, nil
		}
	}
	return nil, fmt.Errorf("reference: no feasible plan within K <= %d", kmax)
}

// samePlan compares everything a plan decides: K, explosion handling, every
// group's bucket labels and node list in order, and every estimate.
func samePlan(got, want *Plan) error {
	if got.K != want.K || got.Exploded != want.Exploded || got.SplitParts != want.SplitParts {
		return fmt.Errorf("K/exploded/parts (%d, %v, %d), want (%d, %v, %d)",
			got.K, got.Exploded, got.SplitParts, want.K, want.Exploded, want.SplitParts)
	}
	if len(got.Groups) != len(want.Groups) || len(got.Estimates) != len(want.Estimates) {
		return fmt.Errorf("%d groups / %d estimates, want %d / %d",
			len(got.Groups), len(got.Estimates), len(want.Groups), len(want.Estimates))
	}
	for i := range want.Groups {
		if got.Estimates[i] != want.Estimates[i] {
			return fmt.Errorf("group %d estimate %d, want %d", i, got.Estimates[i], want.Estimates[i])
		}
		if g, w := fmt.Sprint(got.Groups[i].Labels()), fmt.Sprint(want.Groups[i].Labels()); g != w {
			return fmt.Errorf("group %d buckets %s, want %s", i, g, w)
		}
		if g, w := got.Groups[i].Nodes(), want.Groups[i].Nodes(); !slices.Equal(g, w) {
			return fmt.Errorf("group %d nodes differ", i)
		}
	}
	return nil
}

// TestScheduleMatchesReferenceSearch: over graphs from both datagen
// generators, 1- to 3-layer models and budgets from roomy to a fraction of a
// single bucket, the incremental search returns the reference search's plan —
// or fails exactly when it does — with one scratch and one estimator
// recycled across all of it.
func TestScheduleMatchesReferenceSearch(t *testing.T) {
	type graphCase struct {
		spec    datagen.Spec
		fanouts [][]int
	}
	cases := []graphCase{
		{datagen.Spec{Name: "pl", Model: datagen.ClusteredPowerLaw, Nodes: 3000, FeatDim: 2, NumClasses: 2,
			KMin: 3, Alpha: 2.2, Locality: 3, Homophily: 0.5}, [][]int{{10, 25}, {6}, {4, 4, 4}}},
		{datagen.Spec{Name: "ws", Model: datagen.WattsStrogatz, Nodes: 2000, FeatDim: 2, NumClasses: 2,
			K: 6, Rewire: 0.2, Homophily: 0.5}, [][]int{{5, 5}, {3}, {8, 2, 2}}},
	}
	aggs := []gnn.Aggregator{gnn.Mean, gnn.LSTM}
	var sc Scratch
	var est memest.Estimator
	var batch sampling.Batch
	plans := 0
	for ci, c := range cases {
		ds, err := datagen.Generate(c.spec, 9)
		if err != nil {
			t.Fatal(err)
		}
		clusterC := ds.Graph.ApproxClusteringCoefficient(1, 500)
		for fi, fanouts := range c.fanouts {
			rng := rand.New(rand.NewSource(int64(10*ci + fi)))
			seeds, err := sampling.UniformSeeds(ds.Graph, 150+rng.Intn(250), rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := sampling.SampleBatchInto(&batch, ds.Graph, seeds, fanouts, rng); err != nil {
				t.Fatal(err)
			}
			b := &batch
			spec := memest.ModelSpec{Arch: gnn.SAGE, Aggregator: aggs[(ci+fi)%2], Layers: len(fanouts),
				InDim: 32, Hidden: 16, OutDim: 8}
			if err := memest.NewInto(&est, spec, b, clusterC); err != nil {
				t.Fatal(err)
			}
			est.ForwardOnly = fi == 2
			whole, err := est.BatchMem(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, div := range []int64{1, 2, 5, 13, 60, int64(len(b.Seeds))} {
				for _, opts := range []Options{
					{MemLimit: whole / div},
					{MemLimit: whole / div, DisableRedundancy: true},
					{MemLimit: whole / div, KStart: 3, KMax: 40},
				} {
					want, wantErr := referenceSchedule(b, &est, opts)
					opts.Scratch = &sc
					got, gotErr := Schedule(b, &est, opts)
					name := fmt.Sprintf("%s %v whole/%d %+v", c.spec.Name, fanouts, div, opts)
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
					}
					if gotErr != nil {
						continue
					}
					if err := samePlan(got, want); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					plans++
				}
			}
		}
	}
	if plans < 60 {
		t.Fatalf("only %d feasible plans compared", plans)
	}
}

// sweepEnv is the plan-arxiv-sweep workload's planner state: the arxiv
// graph, 1024-seed batches at fanouts 10/25, the 2-layer mean-aggregator
// model of width 16, and budgets of a half, a quarter and an eighth of the
// whole batch's estimate, all on one recycled batch, estimator and scratch.
type sweepEnv struct {
	ds       *datagen.Dataset
	spec     memest.ModelSpec
	clusterC float64
	stream   *sampling.Stream
	batch    sampling.Batch
	est      memest.Estimator
	sc       Scratch
}

func newSweepEnv(t testing.TB) *sweepEnv {
	t.Helper()
	ds, err := datagen.Load("ogbn-arxiv", 3)
	if err != nil {
		t.Fatal(err)
	}
	fanouts := []int{10, 25}
	return &sweepEnv{
		ds: ds,
		spec: memest.SpecFromConfig(gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: len(fanouts),
			InDim: ds.FeatDim(), Hidden: 16, OutDim: ds.NumClasses, Seed: 1}),
		clusterC: ds.Graph.ApproxClusteringCoefficient(1, 2000),
		stream:   sampling.NewStream(ds.Graph, 1024, fanouts, 7),
	}
}

// plan draws the next batch and plans it against the three budgets,
// returning how many K values the searches tried.
func (e *sweepEnv) plan(rec *obs.Recorder) (attempts int64, err error) {
	if err := e.stream.NextInto(&e.batch); err != nil {
		return 0, err
	}
	return e.replan(rec)
}

// replan binds the estimator to the current batch again — which checks its
// hop-0 positions again — and runs the three searches.
func (e *sweepEnv) replan(rec *obs.Recorder) (attempts int64, err error) {
	b := &e.batch
	if err := memest.NewInto(&e.est, e.spec, b, e.clusterC); err != nil {
		return 0, err
	}
	whole, err := e.est.BatchMem(b)
	if err != nil {
		return 0, err
	}
	for _, div := range []int64{2, 4, 8} {
		limit := whole / div
		plan, err := Schedule(b, &e.est, Options{MemLimit: limit, Scratch: &e.sc, Obs: rec})
		if err != nil {
			return 0, err
		}
		if !plan.Exploded || plan.MaxEstimate() > limit {
			return 0, fmt.Errorf("whole/%d: exploded %v, peak %d over limit %d", div, plan.Exploded, plan.MaxEstimate(), limit)
		}
		// The search starts at ceil(whole/limit), or 2, and walks up to K.
		attempts += 1 + int64(plan.K) - max(2, (whole+limit-1)/limit) + 1
	}
	return attempts, nil
}

// TestScheduleWarmScratchZeroAllocs pins the planner's steady state: with a
// warm scratch and estimator and no recorder, re-binding the estimator to an
// exploding arxiv batch (profile and frontier-index rebuild included) and
// running the three K-searches allocates nothing.
func TestScheduleWarmScratchZeroAllocs(t *testing.T) {
	e := newSweepEnv(t)
	for i := 0; i < 3; i++ { // warm every slab on a few batches
		if _, err := e.plan(nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := e.replan(nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm planning pass allocates %v times, want 0", allocs)
	}
}

// TestScheduleRecordsMeasurementCost: the recorder's counters say how much
// measurement a plan cost, and they add up — attempts match the K walk, each
// grouping pass places every working bucket once, and from the second K on
// the K-independent singleton estimates are reused instead of recomputed.
func TestScheduleRecordsMeasurementCost(t *testing.T) {
	e := newSweepEnv(t)
	rec := obs.NewRecorder(nil, obs.NewMetrics())
	wantAttempts, err := e.plan(rec)
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Metrics()
	attempts := m.Counter("schedule/k_attempts").Value()
	placements := m.Counter("schedule/placements_measured").Value()
	probes := m.Counter("schedule/singleton_probes").Value()
	reused := m.Counter("schedule/singleton_reused").Value()
	if attempts != wantAttempts {
		t.Fatalf("k_attempts %d, want %d", attempts, wantAttempts)
	}
	base := bucket.Bucketize(&e.batch).Buckets
	var probed int64 // K-independent buckets the oversized check measures
	for _, bu := range base[:len(base)-1] {
		if bu.Volume() > 1 {
			probed++
		}
	}
	grouped := attempts - 3 // the three K = 1 checks place nothing
	if placements < grouped*int64(len(base)) {
		t.Fatalf("placements_measured %d for %d grouping passes over >= %d buckets", placements, grouped, len(base))
	}
	// Each search's first attempt probes the K-independent buckets (and the
	// parts of any it splits); every later attempt reuses all of that.
	if probes < 3*probed {
		t.Fatalf("singleton_probes %d, want >= %d", probes, 3*probed)
	}
	if reused < (grouped-3)*probed {
		t.Fatalf("singleton_reused %d, want >= %d attempts x %d buckets", reused, grouped-3, probed)
	}
}

// BenchmarkScheduleArxivSweep is the plan-arxiv-sweep workload's scheduler
// layer alone: one op re-binds the estimator to a fresh 1024-seed arxiv
// batch and runs the cold K-search at whole/2, /4 and /8.
func BenchmarkScheduleArxivSweep(b *testing.B) {
	e := newSweepEnv(b)
	if _, err := e.plan(nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var attempts int64
	for i := 0; i < b.N; i++ {
		n, err := e.plan(nil)
		if err != nil {
			b.Fatal(err)
		}
		attempts += n
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(sec*1e3/float64(attempts), "ms/k-attempt")
	b.ReportMetric(float64(attempts)/sec, "k-attempts/s")
	b.ReportMetric(float64(attempts)/float64(b.N), "k-attempts/op")
}

// BenchmarkSampleAndBindArxiv is the seam between the sampler and the
// planner on the plan-arxiv-sweep shape: one op draws a 1024-seed batch,
// re-profiles it and binds the estimator, up to an empty group ready for its
// first bucket.
func BenchmarkSampleAndBindArxiv(b *testing.B) {
	e := newSweepEnv(b)
	var acc memest.GroupAcc
	op := func() {
		if err := e.stream.NextInto(&e.batch); err != nil {
			b.Fatal(err)
		}
		if err := memest.NewInto(&e.est, e.spec, &e.batch, e.clusterC); err != nil {
			b.Fatal(err)
		}
		if err := e.est.BeginGroup(&acc, &e.batch); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ { // grow every recycled array to the shape's ceiling
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var edges int64
	for i := 0; i < b.N; i++ {
		op()
		edges += e.batch.NumEdges()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
}
