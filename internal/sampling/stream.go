package sampling

import (
	"math/rand"

	"buffalo/internal/graph"
)

// Stream is the one source of sampled batches: an unbounded sequence of
// training batches (NextInto) and caller-seeded samples (SampleInto) from one
// graph with a private RNG. Every session draws from one — inline on the
// consumer goroutine, or, behind an asynchronous loader, in the sampler stage
// from a second Stream with the same seed, since a generator shared across
// goroutines would either race or (behind a lock) interleave draws
// nondeterministically. Streams seeded alike produce the same batch sequence,
// which is what makes pipelined and sequential runs comparable batch for
// batch.
//
// A Stream is not safe for concurrent use; it is owned by exactly one
// goroutine.
type Stream struct {
	g       *graph.Graph
	size    int
	fanouts []int
	rng     *rand.Rand
	seeds   []graph.NodeID // UniformSeedsInto's recycled permutation
}

// NewStream builds a batch stream over g drawing size seeds per batch with
// the given fanouts, seeded deterministically.
func NewStream(g *graph.Graph, size int, fanouts []int, seed int64) *Stream {
	return &Stream{
		g:       g,
		size:    size,
		fanouts: append([]int(nil), fanouts...),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// NextInto refills b with the stream's next batch, reusing b's backing
// storage (see SampleBatchInto): uniform seeds, then fanout sampling, both
// from the stream's private RNG.
func (s *Stream) NextInto(b *Batch) error {
	seeds, err := UniformSeedsInto(s.seeds, s.g, s.size, s.rng)
	if err != nil {
		return err
	}
	s.seeds = seeds
	return s.SampleInto(b, seeds)
}

// SampleInto refills b with the fanout sample around caller-chosen seeds
// (evaluation nodes, inference requests), drawn from the same generator as
// NextInto: a session that interleaves the two consumes one RNG sequence.
func (s *Stream) SampleInto(b *Batch, seeds []graph.NodeID) error {
	return SampleBatchInto(b, s.g, seeds, s.fanouts, s.rng)
}
