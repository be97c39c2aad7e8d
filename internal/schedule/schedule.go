// Package schedule implements the Buffalo Scheduler (Algorithms 3 and 4):
// degree-bucketize the batch's output layer, split the explosion bucket into
// K micro-buckets, pack buckets into K memory-balanced groups with a greedy
// load-balanced bin-packing pass driven by the redundancy-aware memory
// estimator, and grow K until every group fits the device budget.
package schedule

import (
	"errors"
	"fmt"
	"slices"

	"buffalo/internal/bucket"
	"buffalo/internal/memest"
	"buffalo/internal/obs"
	"buffalo/internal/sampling"
)

// Options configure the scheduler. The zero value of optional fields uses
// defaults.
type Options struct {
	// MemLimit is the device-memory budget in bytes one micro-batch's
	// activations + features may use (the GPU capacity minus the fixed
	// model/optimizer footprint). Required.
	MemLimit int64
	// KMax bounds the search; defaults to the number of output nodes.
	KMax int
	// KStart forces the search to begin at a given K (used by experiments
	// that sweep micro-batch counts); defaults to 1.
	KStart int
	// DisableRedundancy makes the group estimator use R_group = 1 (the
	// ablation of Eq. 1: plain linear addition of bucket estimates).
	DisableRedundancy bool
	// Obs optionally records scheduler decisions (K-search attempts,
	// explosion splits, the winning K and its estimate). Nil disables.
	Obs *obs.Recorder
	// Scratch optionally reuses one prior scheduling pass's storage. The
	// returned Plan (groups, estimates, bucket lists) aliases the scratch and
	// is valid only until the next Schedule call with the same scratch; one
	// scratch serves one in-flight plan at a time. Nil allocates fresh.
	Scratch *Scratch
}

// weighted pairs a bucket with its singleton memory estimate for the
// bin-packing passes.
type weighted struct {
	b *bucket.Bucket
	m int64
}

// Scratch owns the reusable storage one scheduling pass consumes: the
// bucketization scratch, the working bucket list of the current K attempt
// and the slab its split micro-buckets live in, the weighted-item buffer, a
// group slab with one estimator accumulator per group plus the pointer and
// estimate slices handed out in the Plan, a singleton probe group for the
// oversized-bucket check, and the Plan header itself.
type Scratch struct {
	buckets   bucket.Scratch
	working   []*bucket.Bucket
	parts     []bucket.Bucket
	items     []weighted
	groupSlab []bucket.Group
	groupPtrs []*bucket.Group
	accs      []memest.GroupAcc // accs[i] measures groupSlab[i]
	estimates []int64
	probe     bucket.Group
	plan      Plan
}

// Plan is the scheduler's result: K bucket groups, each of which becomes one
// micro-batch, plus the per-group memory estimates that justified the plan.
type Plan struct {
	K         int
	Groups    []*bucket.Group
	Estimates []int64 // redundancy-aware estimate per group, bytes
	// Exploded reports whether the cut-off bucket was split, and into how
	// many micro-buckets.
	Exploded   bool
	SplitParts int
}

// MaxEstimate returns the largest per-group estimate.
func (p *Plan) MaxEstimate() int64 {
	var mx int64
	for _, e := range p.Estimates {
		if e > mx {
			mx = e
		}
	}
	return mx
}

// Imbalance reports (max-min)/max across group estimates: the Fig 14
// load-balance metric. Plans with one group report 0.
func (p *Plan) Imbalance() float64 {
	if len(p.Estimates) < 2 {
		return 0
	}
	mn, mx := p.Estimates[0], p.Estimates[0]
	for _, e := range p.Estimates[1:] {
		if e < mn {
			mn = e
		}
		if e > mx {
			mx = e
		}
	}
	if mx == 0 {
		return 0
	}
	return float64(mx-mn) / float64(mx)
}

var errMemLimit = errors.New("schedule: MemLimit must be positive")

// ErrInfeasible is the error every planner that searches K against a memory
// limit wraps when no K up to its bound fits: Schedule here, and the
// training engine's search for the partitioned baselines (Betty, Random,
// Range, METIS). Test for it with errors.Is.
var ErrInfeasible = errors.New("no feasible plan")

// search is the state of one Schedule call: its inputs, and how much
// measurement the K-search has spent so far.
type search struct {
	sc   *Scratch
	b    *sampling.Batch
	est  *memest.Estimator
	opts Options

	attempts   int64 // K values tried, the K = 1 whole-batch check included
	placements int64 // bucket placements measured by the grouping passes
	probes     int64 // singleton estimates computed for the oversized check
	reused     int64 // singleton estimates later K attempts took from the first
}

// Schedule is Algorithm 3: it searches for the smallest K whose
// memory-balanced grouping fits the budget and returns the winning plan.
func Schedule(b *sampling.Batch, est *memest.Estimator, opts Options) (*Plan, error) {
	if opts.MemLimit <= 0 {
		return nil, errMemLimit
	}
	sc := opts.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	s := search{sc: sc, b: b, est: est, opts: opts}
	base := bucket.BucketizeInto(&sc.buckets, b)
	kmax := opts.KMax
	if kmax <= 0 {
		kmax = base.TotalNodes()
	}
	k := opts.KStart
	if k < 1 {
		k = 1
	}
	// K = 1 special case (Algorithm 3's "do not do anything" branch): if the
	// whole batch fits, the original batch is the single micro-batch.
	if k == 1 {
		sc.ensureGroups(1)
		whole := sc.groupPtrs[0]
		whole.Buckets = append(whole.Buckets, base.Buckets...)
		m, err := s.groupMem(whole)
		if err != nil {
			return nil, err
		}
		s.attempts++
		if m <= opts.MemLimit {
			sc.estimates = append(sc.estimates[:0], m)
			plan := &sc.plan
			*plan = Plan{K: 1, Groups: sc.groupPtrs[:1], Estimates: sc.estimates}
			s.record(plan)
			return plan, nil
		}
		// No K below ceil(whole/limit) can be feasible — the total memory
		// must spread across groups each holding at most the limit — so the
		// incremental search starts at that lower bound.
		k = int((m + opts.MemLimit - 1) / opts.MemLimit)
		if k < 2 {
			k = 2
		}
	}

	// Only the explosion bucket's micro-buckets depend on K. Every other
	// bucket — and whatever the oversized check splits it into — is the same
	// at every K, so that prefix of the working list is built and probed
	// once; each attempt truncates back to it and appends its own split.
	target, exploded := base.DetectExplosion()
	fixed := base.Buckets
	if exploded {
		// DetectExplosion only ever flags the cut-off bucket, which the
		// degree-sorted bucketing lists last.
		fixed = fixed[:len(fixed)-1]
	}
	sc.parts = sc.parts[:0]
	sc.working = append(sc.working[:0], fixed...)
	if err := s.splitOversized(0); err != nil {
		return nil, err
	}
	fixedWorking, fixedParts, fixedProbes := len(sc.working), len(sc.parts), s.probes
	for ; k <= kmax; k++ {
		s.attempts++
		splitParts := 0
		if exploded {
			sc.parts = sc.parts[:fixedParts]
			sc.working = append(sc.working[:fixedWorking], target)
			splitParts = s.splitAt(fixedWorking, k)
			if err := s.splitOversized(fixedWorking); err != nil {
				return nil, err
			}
		}
		groups, estimates, err := s.group(k)
		if err != nil {
			return nil, err
		}
		if !fits(estimates, opts.MemLimit) {
			s.reused += fixedProbes // infeasible at this K; the next attempt probes only its own split
			continue
		}
		plan := &sc.plan
		*plan = Plan{
			K: k, Groups: groups, Estimates: estimates,
			Exploded: exploded, SplitParts: splitParts,
		}
		s.record(plan)
		return plan, nil
	}
	return nil, fmt.Errorf("schedule: %w within K <= %d for budget %d bytes", ErrInfeasible, kmax, opts.MemLimit)
}

func fits(estimates []int64, limit int64) bool {
	for _, m := range estimates {
		if m > limit {
			return false
		}
	}
	return true
}

// ensureGroups sizes the group slab, its accumulators and the pointer slice
// to n, truncating each slab entry's bucket list so its capacity survives
// across passes.
func (sc *Scratch) ensureGroups(n int) {
	if cap(sc.groupSlab) < n {
		slab := make([]bucket.Group, n)
		copy(slab, sc.groupSlab)
		sc.groupSlab = slab
		accs := make([]memest.GroupAcc, n)
		copy(accs, sc.accs)
		sc.accs = accs
	}
	sc.groupSlab = sc.groupSlab[:n]
	sc.accs = sc.accs[:n]
	sc.groupPtrs = sc.groupPtrs[:0]
	for i := range sc.groupSlab {
		sc.groupSlab[i].Buckets = sc.groupSlab[i].Buckets[:0]
		sc.groupPtrs = append(sc.groupPtrs, &sc.groupSlab[i])
	}
}

// record emits the winning plan's scheduler decisions: how many K values
// the search tried and how much measurement they cost (bucket placements
// measured, singleton estimates computed and reused), the chosen K, whether
// the explosion bucket was split (and into how many micro-buckets), and the
// plan's peak estimate.
func (s *search) record(plan *Plan) {
	r := s.opts.Obs
	if !r.Enabled() {
		return
	}
	m := r.Metrics()
	m.Counter("schedule/k_attempts").Add(s.attempts)
	m.Counter("schedule/placements_measured").Add(s.placements)
	m.Counter("schedule/singleton_probes").Add(s.probes)
	m.Counter("schedule/singleton_reused").Add(s.reused)
	m.Gauge("schedule/last_k").Set(int64(plan.K))
	if plan.Exploded {
		r.Event(obs.KindMark, "", "schedule/explosion_split", 0, 0, int64(plan.SplitParts))
	}
	r.Event(obs.KindMark, "", "schedule/plan", plan.MaxEstimate(), 0, int64(plan.K))
}

// splitAt replaces working[i] by its k micro-buckets, cut in the graph's
// locality order into the scratch slab, and reports how many parts that
// made. A slab that grows moves to a new array; buckets already pointed at
// stay where they were, unchanged.
func (s *search) splitAt(i, k int) int {
	sc := s.sc
	from := len(sc.parts)
	sc.parts = bucket.AppendSplit(&sc.buckets, sc.parts, sc.working[i], k, s.b.Graph)
	n := len(sc.parts) - from
	end := len(sc.working)
	sc.working = slices.Grow(sc.working, n-1)[:end+n-1]
	copy(sc.working[i+n:], sc.working[i+1:end])
	for j := 0; j < n; j++ {
		sc.working[i+j] = &sc.parts[from+j]
	}
	return n
}

// splitOversized walks working[from:]. §IV-A allows groups to hold "a
// portion of a large-sized degree-bucket" in general: any bucket whose own
// (redundancy-aware, singleton-group) estimate exceeds the budget can never
// fit a group, so it is split into just enough micro-buckets, which are
// checked in turn. The check must use the same estimator the grouping
// feasibility check uses, or split buckets could still be rejected by every
// group.
func (s *search) splitOversized(from int) error {
	sc := s.sc
	for i := from; i < len(sc.working); {
		bu := sc.working[i]
		if bu.Volume() > 1 {
			sc.probe.Buckets = append(sc.probe.Buckets[:0], bu)
			m, err := s.groupMem(&sc.probe)
			if err != nil {
				return err
			}
			s.probes++
			if m > s.opts.MemLimit {
				s.splitAt(i, int(m/s.opts.MemLimit)+1)
				continue // re-check from the first part
			}
		}
		i++
	}
	return nil
}

// group is Algorithm 4 over the scratch's working list: sort buckets by
// estimated memory descending, then place each into the group with the lowest
// redundancy-aware estimate so far (greedy load-balanced bin packing with
// value = weight = estimated bucket memory). Groups and estimates are built
// inside the scratch; each group keeps an estimator accumulator, so a
// placement measures the placed bucket's sampled edges only, not the group it
// joins.
func (s *search) group(k int) ([]*bucket.Group, []int64, error) {
	sc := s.sc
	sc.items = sc.items[:0]
	for _, bu := range sc.working {
		sc.items = append(sc.items, weighted{b: bu, m: s.est.BucketMem(bu.Volume(), bu.Degree)})
	}
	sortWeightedDesc(sc.items)

	sc.ensureGroups(k)
	groups := sc.groupPtrs
	if cap(sc.estimates) < k {
		sc.estimates = make([]int64, k)
	}
	estimates := sc.estimates[:k]
	for i := range estimates {
		estimates[i] = 0
	}
	for _, it := range sc.items {
		// Place into the group with the lowest current estimate.
		best := 0
		for gi := 1; gi < k; gi++ {
			if estimates[gi] < estimates[best] {
				best = gi
			}
		}
		g := groups[best]
		g.Buckets = append(g.Buckets, it.b)
		s.placements++
		if s.opts.DisableRedundancy {
			estimates[best] += it.m // R_group = 1: bucket estimates add up
			continue
		}
		acc := &sc.accs[best]
		if len(g.Buckets) == 1 {
			if err := s.est.BeginGroup(acc, s.b); err != nil {
				return nil, nil, err
			}
		}
		if err := s.est.AddBucket(acc, it.b); err != nil {
			return nil, nil, err
		}
		estimates[best] = s.est.AccMem(acc)
	}
	// Drop empty groups (K above the bucket count).
	outG := groups[:0]
	outE := estimates[:0]
	for i, g := range groups {
		if len(g.Buckets) > 0 {
			outG = append(outG, g)
			outE = append(outE, estimates[i])
		}
	}
	return outG, outE, nil
}

// sortWeightedDesc stable-sorts items by estimate descending. Bucket counts
// are tiny (at most the fanout plus split parts), so binary-insertion sort
// beats sort.SliceStable and sidesteps its interface boxing.
func sortWeightedDesc(items []weighted) {
	for i := 1; i < len(items); i++ {
		it := items[i]
		lo, hi := 0, i
		for lo < hi {
			mid := (lo + hi) / 2
			if items[mid].m >= it.m {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		copy(items[lo+1:i+1], items[lo:i])
		items[lo] = it
	}
}

// groupMem measures g in one shot, dispatching between the redundancy-aware
// estimator and its ablation (R_group forced to 1).
func (s *search) groupMem(g *bucket.Group) (int64, error) {
	if !s.opts.DisableRedundancy {
		return s.est.GroupMem(s.b, g)
	}
	var total int64
	for _, bu := range g.Buckets {
		total += s.est.BucketMem(bu.Volume(), bu.Degree)
	}
	return total, nil
}

// FirstFitGrouping is the ablation baseline for Algorithm 4: first-fit
// decreasing bin packing against the budget, with no balance objective. It
// returns however many groups first-fit opens.
func FirstFitGrouping(b *sampling.Batch, bk *bucket.Bucketing, est *memest.Estimator, memLimit int64) ([]*bucket.Group, []int64, error) {
	items := make([]weighted, 0, len(bk.Buckets))
	for _, bu := range bk.Buckets {
		items = append(items, weighted{b: bu, m: est.BucketMem(bu.Volume(), bu.Degree)})
	}
	sortWeightedDesc(items)
	var groups []*bucket.Group
	var estimates []int64
	for _, it := range items {
		placed := false
		for gi, g := range groups {
			g.Buckets = append(g.Buckets, it.b)
			m, err := est.GroupMem(b, g)
			if err != nil {
				return nil, nil, err
			}
			if m <= memLimit {
				estimates[gi] = m
				placed = true
				break
			}
			g.Buckets = g.Buckets[:len(g.Buckets)-1]
		}
		if !placed {
			g := &bucket.Group{Buckets: []*bucket.Bucket{it.b}}
			m, err := est.GroupMem(b, g)
			if err != nil {
				return nil, nil, err
			}
			if m > memLimit {
				return nil, nil, fmt.Errorf("schedule: bucket %s alone exceeds the budget (%d > %d)",
					it.b.Label(), m, memLimit)
			}
			groups = append(groups, g)
			estimates = append(estimates, m)
		}
	}
	return groups, estimates, nil
}
