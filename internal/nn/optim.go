package nn

import (
	"math"

	"buffalo/internal/tensor"
)

// Adam is the Adam optimizer with bias correction. It runs in one of two
// storage modes: the map-backed Step over per-parameter tensors, or — built
// via NewAdamShard — the flat StepFlat over one contiguous element range of a
// flattened set. The update rule is elementwise, so for the same gradients
// the two modes produce bit-identical values; the flat mode is what ZeRO-1
// shards (each replica an Adam owning only its [lo, hi) range, holding
// moment state only for that range).
type Adam struct {
	LR, Beta1, Beta2, Eps float32

	t int
	m map[*Param]*tensor.Matrix
	v map[*Param]*tensor.Matrix

	lo, hi int // owned element range of the flat buffer (StepFlat mode)
	fm, fv []float32
}

// NewAdam builds an Adam optimizer with the usual defaults for unset betas.
func NewAdam(lr float32) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.Matrix),
		v: make(map[*Param]*tensor.Matrix),
	}
}

// NewAdamShard builds an Adam optimizer owning elements [lo, hi) of a
// flattened parameter set: moment buffers cover the shard alone and are
// allocated here, eagerly, so the per-iteration StepFlat stays free of
// allocations. A full-range shard (lo=0, hi=TotalElems) is the flat
// replacement for the map-backed Step; ZeRO-1 uses one shard per replica.
func NewAdamShard(lr float32, lo, hi int) *Adam {
	a := NewAdam(lr)
	a.lo, a.hi = lo, hi
	a.fm = make([]float32, hi-lo)
	a.fv = make([]float32, hi-lo)
	return a
}

// StepFlat applies one Adam update over the optimizer's owned element range
// of the flat buffer. The arithmetic per element is exactly Step's, so a
// full-range StepFlat matches the map-backed Step bit for bit, and a set of
// shard optimizers covering [0, TotalElems) — each stepped once per
// iteration so their bias-correction clocks agree — matches a single
// full-range step bit for bit. Padding elements carry zero gradients and
// zero moments, so stepping over them leaves their zero values unchanged.
// The loop is tensor.AdamInto's, vector where the build has it.
func (a *Adam) StepFlat(fb *FlatBuffer) {
	a.t++
	c1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	c2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	tensor.AdamInto(fb.values[a.lo:a.hi], fb.grads[a.lo:a.hi], a.fm, a.fv, a.LR, a.Beta1, a.Beta2, a.Eps, c1, c2)
}

// Step applies one update from the current gradients over per-parameter
// tensors. It does NOT zero them; callers control accumulation explicitly.
// The engine steps flat buffers (StepFlat). Only tests call Step: it is the
// reference StepFlat's bit-identity test compares against, and the
// optimizer the nn and gnn tests train unflattened parameter sets with.
func (a *Adam) Step(ps *ParamSet) {
	a.t++
	c1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	c2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	for _, p := range ps.Params() {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Value.Rows, p.Value.Cols)
			a.m[p] = m
			a.v[p] = tensor.New(p.Value.Rows, p.Value.Cols)
		}
		v := a.v[p]
		for i, g := range p.Grad.Data {
			m.Data[i] = float32(a.Beta1*m.Data[i]) + float32((1-a.Beta1)*g)
			v.Data[i] = float32(a.Beta2*v.Data[i]) + float32(float32((1-a.Beta2)*g)*g)
			mh := m.Data[i] / c1
			vh := v.Data[i] / c2
			p.Value.Data[i] -= a.LR * mh / (float32(math.Sqrt(float64(vh))) + a.Eps)
		}
	}
}
