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

// Sentinel errors for the per-iteration combine operations below. They flag
// programming errors that never fire in a correctly wired trainer, so they
// carry no per-call detail and the hot path pays no fmt boxing for them.
var (
	errNotFlat     = errors.New("nn: parameter set is not flattened (call Flatten first)")
	errFlatShape   = errors.New("nn: flat layouts differ (sets built or flattened differently)")
	errBucketRange = errors.New("nn: gradient bucket slice out of the flat buffer's range")
)

// ParamSet is an ordered collection of parameters, the unit optimizers and
// gradient bookkeeping operate on. After Flatten the set's storage lives in
// one FlatBuffer and the bulk operations below run as contiguous sweeps over
// it. The combine operations (CopyValuesFrom, AddGradsFromBucket) need both
// sets flattened; ZeroGrad also clears an unflattened set, tensor by tensor,
// for models trained outside the engine.
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

// Params returns the registered parameters in registration order. The
// engine works on the flat buffers instead; Adam.Step and the tests of
// several packages walk the parameters through it.
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

// AddGradsFromBucket accumulates src's gradients into ps for one bucket's
// slice of the flat buffers. Every element lives in exactly one bucket, so
// accumulating bucket by bucket in any bucket order, with a fixed replica
// order inside each bucket, performs the same per-element float additions in
// the same order whatever the bucket bound — which keeps every combine mode
// bit-identical. Padding elements are zero on both sides, an exact no-op.
func (ps *ParamSet) AddGradsFromBucket(src *ParamSet, b GradBucket) error {
	if err := ps.sameLayout(src); err != nil {
		return err
	}
	if b.Off < 0 || b.Len < 0 || b.Off+b.Len > len(ps.flat.grads) {
		return errBucketRange
	}
	dst := ps.flat.grads[b.Off : b.Off+b.Len]
	sg := src.flat.grads[b.Off : b.Off+b.Len]
	for i := range dst {
		dst[i] += sg[i]
	}
	return nil
}

// CopyValuesFrom copies src's parameter values into ps in one sweep of the
// flat buffers; used to replicate a model onto several devices.
func (ps *ParamSet) CopyValuesFrom(src *ParamSet) error {
	if err := ps.sameLayout(src); err != nil {
		return err
	}
	copy(ps.flat.values, src.flat.values)
	return nil
}

// sameLayout returns an error unless ps and src are flattened sets whose flat
// buffers line up element for element.
func (ps *ParamSet) sameLayout(src *ParamSet) error {
	if ps.flat == nil || src.flat == nil {
		return errNotFlat
	}
	if len(ps.params) != len(src.params) || len(ps.flat.grads) != len(src.flat.grads) {
		return errFlatShape
	}
	return nil
}
