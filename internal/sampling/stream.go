package sampling

import (
	"math/rand"

	"buffalo/internal/graph"
)

// Stream draws an unbounded sequence of training batches from one graph with
// a private RNG. It exists for asynchronous loaders: a pipeline's sampler
// stage runs in its own goroutine, and sharing a session's *rand.Rand across
// goroutines would either race or (behind a lock) interleave draws
// nondeterministically. A Stream seeded like a sequential session's sampler
// reproduces that session's exact batch sequence, which is what makes
// pipelined and sequential runs comparable batch for batch.
//
// A Stream is not safe for concurrent use; it is owned by exactly one
// sampler goroutine.
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

// Next draws the stream's next batch: uniform seeds, then fanout sampling,
// both from the stream's private RNG in the same order a sequential
// session's SampleBatch consumes randomness.
func (s *Stream) Next() (*Batch, error) {
	b := &Batch{}
	if err := s.NextInto(b); err != nil {
		return nil, err
	}
	return b, nil
}

// NextInto refills b with the stream's next batch, reusing b's backing
// storage (see SampleBatchInto). The RNG consumption matches Next exactly.
func (s *Stream) NextInto(b *Batch) error {
	seeds, err := UniformSeedsInto(s.seeds, s.g, s.size, s.rng)
	if err != nil {
		return err
	}
	s.seeds = seeds
	return SampleBatchInto(b, s.g, seeds, s.fanouts, s.rng)
}
