package device

import (
	"fmt"
	"sync"
	"time"

	"buffalo/internal/obs"
)

// Cluster is a set of identical simulated GPUs connected by a shared
// interconnect (PCIe in the paper's two-A100 machine, §V-G). It models the
// gradient all-reduce the data-parallel trainer performs each iteration.
//
// Like the per-GPU copy engine, the interconnect is its own engine on the
// simulated timeline, and every collective is booked on it: one launched
// while compute tails are still running charges the iteration only for the
// share the training step actually had to wait for (WaitReduce), with the
// hidden remainder reported separately. A collective launched at the compute
// tail is exposed in full.
type Cluster struct {
	gpus []*GPU

	// interconnect bandwidth per link in bytes/second and per-message latency.
	linkBandwidth float64
	linkLatency   time.Duration

	// mu guards the comm clocks: the trainer's consumer goroutine accumulates
	// them via the *Async launches and WaitReduce while observers may read
	// them concurrently through CommTime and Collectives.
	mu       sync.Mutex
	commTime time.Duration
	// commFront is the comm engine's busy-until position on the current
	// iteration's reduce window (origin = iteration start, the same timeline
	// the trainer's per-replica compute positions live on). WaitReduce closes
	// the window and rewinds it: the optimizer step that consumes the reduced
	// gradients gates the next iteration's backward, so the interconnect is
	// always idle when a new iteration starts.
	commFront time.Duration
	// bucketSeq numbers the async reduces of the current window for traces.
	bucketSeq int64
	// coll is the sharded collectives' share of commTime (all-reduce time is
	// commTime minus both), for the manifest's sharding section.
	coll CollectiveBreakdown
	rec  *obs.Recorder
}

// NewCluster builds n identical GPUs named base-0..base-(n-1).
func NewCluster(base string, n int, capacity int64, opts ...Option) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("device: cluster needs at least 1 GPU, got %d", n)
	}
	c := &Cluster{linkBandwidth: 10e9, linkLatency: 25 * time.Microsecond}
	for i := 0; i < n; i++ {
		c.gpus = append(c.gpus, NewGPU(fmt.Sprintf("%s-%d", base, i), capacity, opts...))
	}
	// The interconnect reports to the same recorder the per-GPU options
	// installed (WithRecorder applies to every device identically).
	c.rec = c.gpus[0].rec
	return c, nil
}

// Size reports the number of GPUs.
func (c *Cluster) Size() int { return len(c.gpus) }

// GPU returns device i.
func (c *Cluster) GPU(i int) *GPU { return c.gpus[i] }

// halfRingDuration is the one place the ring collective cost model lives:
// n-1 exchange steps each moving one size/n chunk over the slowest link,
// paying the per-message latency once per step — i.e. (n-1)/n·size of wire
// volume plus (n-1) latencies. A ring reduce-scatter and a ring all-gather
// each cost exactly this; a full all-reduce is the two back to back. Every
// collective this cluster models is priced here, so volume-accounting fixes
// cannot drift between paths. Single-GPU clusters move nothing.
func (c *Cluster) halfRingDuration(size int64) time.Duration {
	n := len(c.gpus)
	if n < 2 {
		return 0
	}
	steps := n - 1
	chunk := float64(size) / float64(n)
	return time.Duration(float64(steps)*(chunk/c.linkBandwidth)*float64(time.Second)) +
		time.Duration(steps)*c.linkLatency
}

// ReduceScatterDuration prices a ring reduce-scatter of size bytes: each
// replica ends holding the fully reduced 1/n shard, for (n-1)/n·size moved
// plus n-1 latencies (see halfRingDuration).
func (c *Cluster) ReduceScatterDuration(size int64) time.Duration {
	return c.halfRingDuration(size)
}

// AllGatherDuration prices a ring all-gather of size bytes (total gathered
// payload): identical wire cost to the reduce-scatter half.
func (c *Cluster) AllGatherDuration(size int64) time.Duration {
	return c.halfRingDuration(size)
}

// RingReduceDuration prices a full ring all-reduce: a reduce-scatter half
// followed by an all-gather half. Composing the two halves here — rather
// than repeating the 2(n-1)-step formula — guarantees
// ReduceScatterDuration(s) + AllGatherDuration(s) == RingReduceDuration(s)
// exactly, so the sharded path's comm accounting can be compared to the
// all-reduce path's without rounding slop.
func (c *Cluster) RingReduceDuration(size int64) time.Duration {
	return c.halfRingDuration(size) + c.halfRingDuration(size)
}

// AllReduceAsync launches one ring all-reduce of size bytes on the comm
// engine: the reduce starts as soon as both the interconnect is free and the
// gradients are ready (the position on the iteration timeline the trainer
// passes — a bucket produced mid-backward cannot reduce before the backward
// pass reaches it). It returns the reduce's completion position; the full
// ring duration accrues on the comm clock (the interconnect is busy that
// long), and how much of it was hidden behind compute is decided at
// WaitReduce time. Single-GPU clusters return ready unchanged at no cost.
func (c *Cluster) AllReduceAsync(size int64, ready time.Duration) time.Duration {
	return c.bookAsync(obs.KindBucketReduce, "bucket", size, c.RingReduceDuration(size), ready)
}

// bookAsync places one collective of duration d on the comm engine after
// both the engine is free and the payload is ready, records its span with
// the window launch index, and returns the completion position. A
// collective that takes no time (single-GPU clusters) returns ready at no
// cost. Callers hold no lock.
func (c *Cluster) bookAsync(kind obs.Kind, name string, size int64, d, ready time.Duration) time.Duration {
	if d == 0 {
		return ready
	}
	c.mu.Lock()
	c.commFront = max(c.commFront, ready) + d
	c.commTime += d
	switch kind {
	case obs.KindReduceScatter:
		c.coll.ReduceScatterTime += d
		c.coll.ReduceScatterCount++
	case obs.KindAllGather:
		c.coll.AllGatherTime += d
		c.coll.AllGatherCount++
	}
	done, seq := c.commFront, c.bucketSeq
	c.bucketSeq++
	c.mu.Unlock()
	c.rec.Span(kind, "", name, d, size, seq)
	return done
}

// ReduceScatterAsync launches one gradient bucket's ring reduce-scatter on
// the comm engine: like AllReduceAsync it starts once the interconnect is
// free and the bucket's gradients are ready, but it moves only the
// reduce-scatter half of the ring — each replica ends holding the fully
// reduced 1/n shard of the bucket, at half the all-reduce's wire time. The
// full duration accrues on the comm clock; WaitReduce decides how much was
// hidden. Single-GPU clusters return ready unchanged at no cost.
func (c *Cluster) ReduceScatterAsync(size int64, ready time.Duration) time.Duration {
	return c.bookAsync(obs.KindReduceScatter, "reducescatter", size, c.ReduceScatterDuration(size), ready)
}

// AllGatherAsync launches a ring all-gather of size bytes (the total
// gathered payload — e.g. the flat parameter buffer after each replica
// stepped its own shard) on the comm engine, starting once the interconnect
// is free and the shards are ready. Accounting mirrors ReduceScatterAsync.
func (c *Cluster) AllGatherAsync(size int64, ready time.Duration) time.Duration {
	return c.bookAsync(obs.KindAllGather, "allgather", size, c.AllGatherDuration(size), ready)
}

// WaitReduce ends the current iteration's reduce window: the training step
// has reached position at on the iteration timeline (its slowest replica's
// compute tail) and must wait for the comm engine's outstanding reduces. The
// stall — the exposed, non-hidden share of the window's reduce time — is
// accrued on the exposed-comm clock and returned (0 when every reduce
// finished behind compute). The window front rewinds to the timeline origin
// for the next iteration.
func (c *Cluster) WaitReduce(at time.Duration) time.Duration {
	c.mu.Lock()
	stall := c.commFront - at
	if stall < 0 {
		stall = 0
	}
	c.commFront = 0
	c.bucketSeq = 0
	c.mu.Unlock()
	if stall > 0 {
		c.rec.Span(obs.KindStall, "", "reduce-wait", stall, 0, 0)
	}
	return stall
}

// CommTime reports the interconnect's total busy time across every
// collective launched. Only tests call it: it is the reference
// TestZeRO1ShardedCollectiveAccounting checks the engine's per-iteration
// Communication against.
func (c *Cluster) CommTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commTime
}

// CollectiveBreakdown splits the comm clock by collective family.
type CollectiveBreakdown struct {
	ReduceScatterTime  time.Duration
	AllGatherTime      time.Duration
	ReduceScatterCount int64
	AllGatherCount     int64
}

// Collectives reports the sharded-collective share of CommTime: how much
// interconnect busy time reduce-scatters and all-gathers contributed, and
// how many of each launched. CommTime minus both is the all-reduce share.
func (c *Cluster) Collectives() CollectiveBreakdown {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coll
}

// Stats snapshots every device's counters, cluster order. The reporting
// layer's one-call view of the whole cluster.
func (c *Cluster) Stats() []Stats {
	out := make([]Stats, len(c.gpus))
	for i, g := range c.gpus {
		out[i] = g.Stats()
	}
	return out
}
