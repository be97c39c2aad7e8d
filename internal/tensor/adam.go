package tensor

import "math"

// AdamInto applies one Adam update to each element of values from the same
// element of grads and the moment estimates m and v, which it updates in
// place. c1 and c2 are the step's bias corrections 1 − β₁ᵗ and 1 − β₂ᵗ. Per
// element the float32 chain is
//
//	m = β₁·m + (1−β₁)·g
//	v = β₂·v + ((1−β₂)·g)·g
//	values −= (lr·(m/c1)) / (√(v/c2) + ε)
//
// every operation rounded to float32 in the order written (the conversions
// forbid fusing a product into its add), with the square root
// float32(math.Sqrt(float64(·))). Where the build has it and the CPU runs
// it (useVector), adam_amd64.s computes the chain eight elements at a time:
// VMULPS, VADDPS, VSUBPS and VDIVPS as written and VSQRTPS for the root,
// which is the same number — a float32 square root rounded through float64
// rounds once more without moving (53 ≥ 2·24 + 2 bits). The Go loop finishes
// the last len%8 elements and is the portable path and the oracle. The four
// slices are of one length and do not overlap.
func AdamInto(values, grads, m, v []float32, lr, beta1, beta2, eps, c1, c2 float32) {
	n := len(values)
	if len(grads) != n || len(m) != n || len(v) != n {
		panicShape("AdamInto lengths", n, len(grads), len(m), len(v))
	}
	ob1, ob2 := 1-beta1, 1-beta2
	i := 0
	if useVector && n >= 8 {
		i = n &^ 7
		adamAVX2(&values[0], &grads[0], &m[0], &v[0], i, beta1, ob1, beta2, ob2, c1, c2, lr, eps)
	}
	for ; i < n; i++ {
		g := grads[i]
		m[i] = float32(beta1*m[i]) + float32(ob1*g)
		v[i] = float32(beta2*v[i]) + float32(float32(ob2*g)*g)
		mh := m[i] / c1
		vh := v[i] / c2
		values[i] -= lr * mh / (float32(math.Sqrt(float64(vh))) + eps)
	}
}
