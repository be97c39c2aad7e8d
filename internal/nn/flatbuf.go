package nn

import (
	"errors"
	"fmt"
)

// Sentinel errors for the flat-buffer hot path. The combine methods run once
// per bucket per replica per micro-batch; fmt.Errorf would box its arguments
// on every call site the compiler cannot prove cold, so the hot sweeps return
// these preallocated values instead. They all indicate the same programming
// error — parameter sets flattened with different arguments — which the
// engine rules out at construction.
var (
	errFlatLenMismatch = errors.New("nn: flat buffer length mismatch (sets flattened with different arguments)")
	errBucketRange     = errors.New("nn: gradient bucket slice out of the flat buffer's range")
)

// FlatBuffer packs a ParamSet's values and gradients into two contiguous
// float32 buffers, the storage refactor Megatron's data-parallel buffer
// popularized: every Param.Value / Param.Grad becomes a zero-copy view into
// the flat storage, and the gradient bucketization becomes a pure index over
// it — each bucket one contiguous slice, each slice evenly divisible into
// per-replica shards.
//
// The layout is the gradient-production (backward) order: the LAST registered
// parameter sits first, since backward passes produce gradients for the
// output layers before the input layers, and an overlapped reducer walking
// buckets front to back wants each one ready as early in the backward pass as
// possible. Buckets are closed when adding the next parameter would exceed
// the guide size (a parameter whose gradient alone exceeds it gets its own
// bucket: a reduce cannot split one tensor), then padded up to a multiple of
// the shard count — padding lives only at bucket tails (= shard boundaries),
// never between parameters, and its elements stay zero on both buffers
// forever (zero values, zero gradients; accumulating or stepping over them is
// an exact no-op).
//
// A flat layout buys three things at once: the sharded collectives
// (reduce-scatter moves bucket slices, not per-parameter tensors), a ZeRO-1
// optimizer whose per-replica state covers one contiguous [lo, hi) element
// range, and a hot path free of per-bucket gradient slice assembly — ZeroGrad
// is one sweep, bucket accumulation is one slice loop.
type FlatBuffer struct {
	values []float32
	grads  []float32
	items  []FlatItem
	bks    []GradBucket
	shards int
	guide  int64 // bucketBytes the index was built with
}

// FlatItem locates one parameter inside the flat buffers.
type FlatItem struct {
	Param  int // index into ParamSet.Params()
	Offset int // element offset of the parameter's slice
	Size   int // elements
	Bucket int // index into Buckets()
}

// Flatten rebuilds the set's storage as one FlatBuffer: current values and
// gradients are copied into the flat buffers and every Param.Value/Param.Grad
// is rebound as a view, so all existing layer wiring keeps working on the
// same Matrix objects. bucketBytes bounds each bucket's gradient payload
// (<= 0 means one monolithic bucket, the monolithic reduce); shards is the
// replica count the buckets must split evenly across (each bucket is padded
// to a multiple of it; 1 means no padding). Flattening twice is an error —
// the views would otherwise silently detach from the first buffer.
func (ps *ParamSet) Flatten(bucketBytes int64, shards int) (*FlatBuffer, error) {
	if ps.flat != nil {
		return nil, fmt.Errorf("nn: parameter set is already flattened")
	}
	if len(ps.params) == 0 {
		return nil, fmt.Errorf("nn: cannot flatten an empty parameter set")
	}
	if shards < 1 {
		shards = 1
	}
	fb := &FlatBuffer{shards: shards, guide: bucketBytes}
	// Pass 1: bucket membership in backward order. The close rule counts
	// payload bytes, never padding, so the partition (and every reduce's
	// payload accounting) does not depend on the shard count.
	total := 0
	cur := GradBucket{}
	closeBucket := func() {
		used := int(0)
		for _, i := range cur.Indices {
			used += len(ps.params[i].Grad.Data)
		}
		padded := used
		if rem := used % shards; rem != 0 {
			padded += shards - rem
		}
		cur.Off = total
		cur.Len = padded
		fb.bks = append(fb.bks, cur)
		total += padded
		cur = GradBucket{}
	}
	for i := len(ps.params) - 1; i >= 0; i-- {
		g := ps.params[i].GradBytes()
		if bucketBytes > 0 && len(cur.Indices) > 0 && cur.Bytes+g > bucketBytes {
			closeBucket()
		}
		cur.Indices = append(cur.Indices, i)
		cur.Bytes += g
	}
	closeBucket()
	fb.values = make([]float32, total)
	fb.grads = make([]float32, total)
	fb.items = make([]FlatItem, len(ps.params))
	// Pass 2: place every parameter, copy its current contents, rebind its
	// tensors as views. Items pack contiguously from each bucket's offset;
	// the gap to the bucket's padded end is the only hole in the layout.
	for bi := range fb.bks {
		off := fb.bks[bi].Off
		for _, pi := range fb.bks[bi].Indices {
			p := ps.params[pi]
			n := len(p.Value.Data)
			fb.items[pi] = FlatItem{Param: pi, Offset: off, Size: n, Bucket: bi}
			copy(fb.values[off:off+n], p.Value.Data)
			copy(fb.grads[off:off+n], p.Grad.Data)
			p.Value.Data = fb.values[off : off+n : off+n]
			p.Grad.Data = fb.grads[off : off+n : off+n]
			off += n
		}
	}
	ps.flat = fb
	return fb, nil
}

// Flat returns the set's flat buffer, nil when the set was never flattened.
func (ps *ParamSet) Flat() *FlatBuffer { return ps.flat }

// Values is the whole flat value buffer (padding included).
func (fb *FlatBuffer) Values() []float32 { return fb.values }

// Grads is the whole flat gradient buffer (padding included).
func (fb *FlatBuffer) Grads() []float32 { return fb.grads }

// Items returns the per-parameter index, ParamSet registration order.
func (fb *FlatBuffer) Items() []FlatItem { return fb.items }

// Buckets returns the bucket index: every bucket a contiguous [Off, Off+Len)
// slice of the flat buffers, backward order, padded to the shard count.
func (fb *FlatBuffer) Buckets() []GradBucket { return fb.bks }

// TotalElems is the flat buffers' length: payload plus bucket-tail padding.
func (fb *FlatBuffer) TotalElems() int { return len(fb.grads) }

// Shards is the shard count the layout was built for.
func (fb *FlatBuffer) Shards() int { return fb.shards }

// ShardElems is the element count one replica owns under sharded collectives:
// every bucket splits into equal shard pieces, so each replica's share of the
// whole buffer is exactly TotalElems/Shards.
func (fb *FlatBuffer) ShardElems() int { return len(fb.grads) / fb.shards }

// ShardBytes is one replica's owned share of the flat buffer in bytes: the
// unit a reduce-scatter leaves behind, and the range a ZeRO-1 optimizer
// keeps state for.
func (fb *FlatBuffer) ShardBytes() int64 { return int64(fb.ShardElems()) * 4 }

// PaddingElems is the number of zero filler elements at bucket tails.
func (fb *FlatBuffer) PaddingElems() int {
	pay := 0
	for _, p := range fb.items {
		pay += p.Size
	}
	return len(fb.grads) - pay
}

// ShardRange is replica shard's owned element range [lo, hi) of the whole
// flat buffer under the contiguous per-replica partition: shard s owns the
// s-th of Shards equal pieces.
func (fb *FlatBuffer) ShardRange(shard int) (lo, hi int) {
	se := fb.ShardElems()
	return shard * se, (shard + 1) * se
}

// ZeroGrad clears the whole flat gradient buffer in one sweep.
func (fb *FlatBuffer) ZeroGrad() {
	for i := range fb.grads {
		fb.grads[i] = 0
	}
}

// AccumulateGrads adds src's flat gradients into fb elementwise. Layouts
// must match (same parameters flattened with the same arguments); padding
// elements are zero on both sides, so including them is an exact no-op.
func (fb *FlatBuffer) AccumulateGrads(src *FlatBuffer) error {
	if len(src.grads) != len(fb.grads) {
		return errFlatLenMismatch
	}
	dst, sg := fb.grads, src.grads
	for i := range dst {
		dst[i] += sg[i]
	}
	return nil
}

// AccumulateGradBucket adds src's gradients into fb for one bucket's slice.
// The per-element additions are the same as a per-parameter AddGradsFrom
// sweep restricted to the bucket — element order does not matter, only the
// per-element replica order, which the caller fixes — so bucketed combines
// stay bit-identical to the whole-set sweep.
func (fb *FlatBuffer) AccumulateGradBucket(src *FlatBuffer, b GradBucket) error {
	if len(src.grads) != len(fb.grads) {
		return errFlatLenMismatch
	}
	if b.Off < 0 || b.Len < 0 || b.Off+b.Len > len(fb.grads) {
		return errBucketRange
	}
	dst := fb.grads[b.Off : b.Off+b.Len]
	sg := src.grads[b.Off : b.Off+b.Len]
	for i := range dst {
		dst[i] += sg[i]
	}
	return nil
}

// CopyValuesFrom copies src's whole flat value buffer into fb (replicating a
// model onto another device in one sweep).
func (fb *FlatBuffer) CopyValuesFrom(src *FlatBuffer) error {
	if len(src.values) != len(fb.values) {
		return errFlatLenMismatch
	}
	copy(fb.values, src.values)
	return nil
}
