// Package nn implements the neural-network stack the GNN layers are built
// from: parameters with gradient buffers, fully connected layers, pointwise
// activations, an LSTM cell with full backpropagation through time, the
// softmax cross-entropy loss, and the Adam optimizer over flat parameter
// buffers.
//
// There is no autograd tape: every layer exposes an explicit
// Forward/Backward pair with the caller responsible for threading gradients.
// Gradients ACCUMULATE into Param.Grad until ZeroGrad is called, which is
// exactly the semantics Buffalo's micro-batch training relies on
// (Algorithm 2: partial gradients from each bucket group are accumulated
// before one optimizer step).
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"buffalo/internal/tensor"
)

// Param is a trainable tensor with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// NewParam allocates a zeroed parameter with a matching gradient buffer.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(rows, cols),
		Grad:  tensor.New(rows, cols),
	}
}

// InitXavier fills the parameter with Glorot-uniform values in
// ±sqrt(6/(fanIn+fanOut)) using the given RNG.
func (p *Param) InitXavier(rng *rand.Rand) {
	limit := float32(math.Sqrt(6 / float64(p.Value.Rows+p.Value.Cols)))
	for i := range p.Value.Data {
		p.Value.Data[i] = (2*rng.Float32() - 1) * limit
	}
}

// Bytes reports the parameter's value+gradient storage footprint.
func (p *Param) Bytes() int64 { return p.Value.Bytes() + p.Grad.Bytes() }

// GradBytes reports the gradient buffer's footprint alone: the payload a
// data-parallel all-reduce actually moves (parameter values are replicated,
// never reduced).
func (p *Param) GradBytes() int64 { return p.Grad.Bytes() }

// Sentinel errors for the per-iteration bulk operations below. They flag the
// same programming error — combining sets built from different models — so
// they carry no per-call detail, and the hot path pays no fmt boxing for
// checks that never fire in a correctly wired trainer.
var (
	errParamCountMismatch = errors.New("nn: parameter count mismatch (sets built from different models)")
	errParamShapeMismatch = errors.New("nn: parameter shape mismatch (sets built from different models)")
	errBucketIndexRange   = errors.New("nn: gradient bucket index out of the parameter set's range")
)

// ParamSet is an ordered collection of parameters, the unit optimizers and
// gradient bookkeeping operate on. After Flatten the set's storage lives in
// one FlatBuffer and the bulk operations below (ZeroGrad, CopyValuesFrom,
// AddGradsFrom, AddGradsFromBucket) run as single contiguous sweeps instead
// of per-parameter loops; the numerics are bit-identical either way because
// every one of them is elementwise.
type ParamSet struct {
	params []*Param
	flat   *FlatBuffer
}

// Add registers params; duplicate names are rejected to catch wiring bugs.
func (ps *ParamSet) Add(params ...*Param) error {
	for _, p := range params {
		for _, q := range ps.params {
			if q.Name == p.Name {
				return fmt.Errorf("nn: duplicate parameter %q", p.Name)
			}
		}
		ps.params = append(ps.params, p)
	}
	return nil
}

// MustAdd is Add that panics on duplicates; for package-internal model wiring
// where a duplicate is a programming error.
func (ps *ParamSet) MustAdd(params ...*Param) {
	if err := ps.Add(params...); err != nil {
		panic(err)
	}
}

// Params returns the registered parameters in registration order.
func (ps *ParamSet) Params() []*Param { return ps.params }

// ZeroGrad clears every gradient accumulator.
func (ps *ParamSet) ZeroGrad() {
	if ps.flat != nil {
		ps.flat.ZeroGrad()
		return
	}
	for _, p := range ps.params {
		p.Grad.Zero()
	}
}

// Bytes reports the total value+gradient footprint of the set.
func (ps *ParamSet) Bytes() int64 {
	var b int64
	for _, p := range ps.params {
		b += p.Bytes()
	}
	return b
}

// GradBytes reports the set's total gradient footprint: what one full
// gradient all-reduce moves. Always Bytes()/2 with the value/grad pairing,
// but callers sizing communication must say so explicitly rather than
// halving the combined footprint inline.
func (ps *ParamSet) GradBytes() int64 {
	var b int64
	for _, p := range ps.params {
		b += p.GradBytes()
	}
	return b
}

// ValueBytes reports the parameter values' footprint alone: the fixed
// device-resident state of a forward-only (inference) session, which holds
// no gradient buffers and no optimizer moments.
func (ps *ParamSet) ValueBytes() int64 {
	var b int64
	for _, p := range ps.params {
		b += p.Value.Bytes()
	}
	return b
}

// GradBucket is one size-bounded slice of a flattened ParamSet's gradients
// (see Flatten, which builds the partition): the unit a bucketed all-reduce
// launches as soon as backward has produced every gradient in it. Indices
// index into Params() and stay in backward order within and across buckets;
// [Off, Off+Len) is the bucket's slice of the flat gradient buffer, Len padded
// to a multiple of the shard count so reduce-scatter splits it evenly.
type GradBucket struct {
	Indices []int
	Bytes   int64 // summed gradient payload of the bucket
	Off     int   // element offset into the flat grad buffer
	Len     int   // padded element length in the flat grad buffer
}

// AddGradsFromBucket accumulates src's gradients into ps for exactly the
// parameters of one bucket. Accumulating bucket by bucket in any bucket
// order, with a fixed replica order inside each bucket, performs the same
// per-parameter float additions in the same order as one whole-set
// AddGradsFrom sweep — which is what keeps a bucketed all-reduce bit-
// identical to the sequential combine.
func (ps *ParamSet) AddGradsFromBucket(src *ParamSet, b GradBucket) error {
	if len(ps.params) != len(src.params) {
		return errParamCountMismatch
	}
	if ps.flat != nil && src.flat != nil && b.Len > 0 {
		return ps.flat.AccumulateGradBucket(src.flat, b)
	}
	for _, i := range b.Indices {
		if i < 0 || i >= len(ps.params) {
			return errBucketIndexRange
		}
		ps.params[i].Grad.AddInPlace(src.params[i].Grad)
	}
	return nil
}

// CopyValuesFrom copies parameter values from src (matched by order); used by
// the data-parallel trainer to replicate a model onto several devices.
func (ps *ParamSet) CopyValuesFrom(src *ParamSet) error {
	if len(ps.params) != len(src.params) {
		return errParamCountMismatch
	}
	if ps.flat != nil && src.flat != nil {
		return ps.flat.CopyValuesFrom(src.flat)
	}
	for i, p := range ps.params {
		s := src.params[i]
		if p.Value.Rows != s.Value.Rows || p.Value.Cols != s.Value.Cols {
			return errParamShapeMismatch
		}
		p.Value.CopyFrom(s.Value)
	}
	return nil
}

// AddGradsFrom accumulates src's gradients into ps (all-reduce step of the
// data-parallel trainer).
func (ps *ParamSet) AddGradsFrom(src *ParamSet) error {
	if len(ps.params) != len(src.params) {
		return errParamCountMismatch
	}
	if ps.flat != nil && src.flat != nil {
		return ps.flat.AccumulateGrads(src.flat)
	}
	for i, p := range ps.params {
		p.Grad.AddInPlace(src.params[i].Grad)
	}
	return nil
}

// GradMaxAbs returns the largest absolute gradient entry across the set;
// useful for tests asserting that backward passes actually produce signal.
func (ps *ParamSet) GradMaxAbs() float32 {
	var mx float32
	for _, p := range ps.params {
		if v := p.Grad.MaxAbs(); v > mx {
			mx = v
		}
	}
	return mx
}
