package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"buffalo/internal/tensor"
)

func randMat(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32() - 0.5
	}
	return m
}

// mapped returns f applied to every element of x, as a new matrix.
func mapped(x *tensor.Matrix, f func(float32) float32) *tensor.Matrix {
	y := x.Clone()
	for i, v := range y.Data {
		y.Data[i] = f(v)
	}
	return y
}

// sigmoid32 and tanh32 are the gate activations' definitions, which
// tensor.SigmoidInto and tensor.TanhInto hold on every path: the reference
// cell below applies them one element at a time.
func sigmoid32(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) }

func tanh32(v float32) float32 { return float32(math.Tanh(float64(v))) }

// dot computes sum(a ⊙ b): the scalar "loss" used in gradient checks.
func dot(a, b *tensor.Matrix) float64 {
	var s float64
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return s
}

// checkGrad compares an analytic gradient against central finite differences
// of loss() over every element of value.
func checkGrad(t *testing.T, name string, value, grad *tensor.Matrix, loss func() float64) {
	t.Helper()
	const eps = 1e-2
	for i := range value.Data {
		orig := value.Data[i]
		value.Data[i] = orig + eps
		lp := loss()
		value.Data[i] = orig - eps
		lm := loss()
		value.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(grad.Data[i])
		diff := math.Abs(numeric - analytic)
		scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
		if diff/scale > 2e-2 {
			t.Fatalf("%s[%d]: analytic %.5f vs numeric %.5f", name, i, analytic, numeric)
		}
	}
}

func TestParamSetDuplicates(t *testing.T) {
	var ps ParamSet
	a := NewParam("w", 1, 1)
	if err := ps.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := ps.Add(NewParam("w", 2, 2)); err == nil {
		t.Fatal("want duplicate error")
	}
	if len(ps.Params()) != 1 {
		t.Fatal("failed add must not register")
	}
}

func TestParamSetZeroGradAndBytes(t *testing.T) {
	var ps ParamSet
	p := NewParam("w", 2, 3)
	ps.MustAdd(p)
	p.Grad.Data[0] = 5
	ps.ZeroGrad()
	if p.Grad.Data[0] != 0 {
		t.Fatal("ZeroGrad failed")
	}
	if ps.Bytes() != 2*2*3*4 {
		t.Fatalf("Bytes = %d", ps.Bytes())
	}
}

func TestParamSetCopyAndReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a, b, ref ParamSet
	pa := NewParam("w", 2, 2)
	pb := NewParam("w", 2, 2)
	pr := NewParam("w", 2, 2)
	pa.InitXavier(rng)
	a.MustAdd(pa)
	b.MustAdd(pb)
	ref.MustAdd(pr)
	// The combine needs flat sets: unflattened, it refuses.
	if err := b.CopyValuesFrom(&a); err == nil {
		t.Fatal("want an error copying between unflattened sets")
	}
	for _, ps := range []*ParamSet{&a, &b} {
		if _, err := ps.Flatten(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.CopyValuesFrom(&a); err != nil {
		t.Fatal(err)
	}
	if pb.Value.Data[0] != pa.Value.Data[0] {
		t.Fatal("CopyValuesFrom failed")
	}
	pa.Grad.Data[0] = 1
	pb.Grad.Data[0] = 2
	pr.Grad.Data[0] = 1
	addGradsRef(&ref, &b)
	for _, bk := range a.flat.Buckets() {
		if err := a.AddGradsFromBucket(&b, bk); err != nil {
			t.Fatal(err)
		}
	}
	if pa.Grad.Data[0] != pr.Grad.Data[0] || pa.Grad.Data[0] != 3 {
		t.Fatalf("AddGradsFromBucket got %v, reference %v", pa.Grad.Data[0], pr.Grad.Data[0])
	}
	var c ParamSet
	c.MustAdd(NewParam("w", 2, 2), NewParam("v", 1, 1))
	if _, err := c.Flatten(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CopyValuesFrom(&a); err == nil {
		t.Fatal("want count mismatch error")
	}
}

func TestLinearForwardShapeAndBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("fc", 3, 2, true, rng)
	l.B.Value.Data[0] = 1
	x := randMat(rng, 4, 3)
	y := l.ForwardInto(tensor.New(4, 2), x)
	if y.Rows != 4 || y.Cols != 2 {
		t.Fatalf("shape %dx%d", y.Rows, y.Cols)
	}
	// Check row 0 against manual compute.
	var want float32
	for k := 0; k < 3; k++ {
		want += x.At(0, k) * l.W.Value.At(k, 0)
	}
	want += 1
	if math.Abs(float64(y.At(0, 0)-want)) > 1e-5 {
		t.Fatalf("y[0,0] = %v, want %v", y.At(0, 0), want)
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear("fc", 3, 2, true, rng)
	var ps ParamSet
	l.Register(&ps)
	x := randMat(rng, 5, 3)
	r := randMat(rng, 5, 2) // random upstream direction
	loss := func() float64 { return dot(l.ForwardInto(tensor.New(5, 2), x), r) }
	ps.ZeroGrad()
	dx := l.BackwardInto(tensor.New(5, 3), tensor.New(1, 2), x, r)
	checkGrad(t, "W", l.W.Value, l.W.Grad, loss)
	checkGrad(t, "b", l.B.Value, l.B.Grad, loss)
	// Input gradient: perturb x.
	checkGrad(t, "x", x, dx, loss)
}

func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randMat(rng, 3, 4)
	r := randMat(rng, 3, 4)

	dx := ReLUBackwardInto(tensor.New(3, 4), x, r)
	checkGrad(t, "relu.x", x, dx, func() float64 { return dot(ReLUInto(tensor.New(3, 4), x), r) })

	dx = LeakyReLUBackwardInto(tensor.New(3, 4), x, r, 0.2)
	checkGrad(t, "lrelu.x", x, dx, func() float64 { return dot(LeakyReLUInto(tensor.New(3, 4), x, 0.2), r) })

	// The LSTM gates' scalar activations, differentiated from their outputs
	// the way the cell does it.
	s := mapped(x, sigmoid32)
	for i, sv := range s.Data {
		dx.Data[i] = r.Data[i] * (sv * (1 - sv))
	}
	checkGrad(t, "sigmoid.x", x, dx, func() float64 { return dot(mapped(x, sigmoid32), r) })

	th := mapped(x, tanh32)
	for i, tv := range th.Data {
		dx.Data[i] = r.Data[i] * (1 - tv*tv)
	}
	checkGrad(t, "tanh.x", x, dx, func() float64 { return dot(mapped(x, tanh32), r) })
}

func TestLSTMForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cell := NewLSTMCell("lstm", 3, 4, rng)
	xs := []*tensor.Matrix{randMat(rng, 2, 3), randMat(rng, 2, 3)}
	h, cache := cell.RunSequence(xs)
	if h.Rows != 2 || h.Cols != 4 {
		t.Fatalf("h shape %dx%d", h.Rows, h.Cols)
	}
	if cache.steps != 2 {
		t.Fatalf("cache steps = %d", cache.steps)
	}
	if cache.Bytes() <= 0 {
		t.Fatal("cache bytes must be positive")
	}
	// Empty sequence.
	h0, c0 := cell.RunSequence(nil)
	if h0.Rows != 0 || h0.Cols != 4 || c0.steps != 0 || c0.Bytes() != 0 {
		t.Fatal("empty sequence should produce empty state")
	}
	if got := cell.BackwardSequence(c0, tensor.New(0, 4)); len(got) != 0 {
		t.Fatal("backward of empty cache should be empty")
	}
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cell := NewLSTMCell("lstm", 2, 3, rng)
	var ps ParamSet
	cell.Register(&ps)
	xs := []*tensor.Matrix{randMat(rng, 2, 2), randMat(rng, 2, 2), randMat(rng, 2, 2)}
	r := randMat(rng, 2, 3)
	loss := func() float64 {
		h, _ := cell.RunSequence(xs)
		return dot(h, r)
	}
	ps.ZeroGrad()
	_, cache := cell.RunSequence(xs)
	dxs := cell.BackwardSequence(cache, r)
	checkGrad(t, "Wx", cell.Wx.Value, cell.Wx.Grad, loss)
	checkGrad(t, "Wh", cell.Wh.Value, cell.Wh.Grad, loss)
	checkGrad(t, "b", cell.B.Value, cell.B.Grad, loss)
	for tstep, dx := range dxs {
		checkGrad(t, "x", xs[tstep], dx, loss)
	}
}

func TestCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice(2, 3, []float32{10, 0, 0, 0, 10, 0})
	labels := []int32{0, 1}
	loss, grad, err := CrossEntropyInto(tensor.New(2, 3), logits, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.01 {
		t.Fatalf("confident correct predictions should have ~0 loss, got %v", loss)
	}
	if grad.Rows != 2 || grad.Cols != 3 {
		t.Fatalf("grad shape %dx%d", grad.Rows, grad.Cols)
	}
	// Wrong labels give high loss.
	lossWrong, _, err := CrossEntropyInto(tensor.New(1, 2), tensor.FromSlice(1, 2, []float32{10, 0}), []int32{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lossWrong < 5 {
		t.Fatalf("wrong confident prediction loss = %v, want ~10", lossWrong)
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	logits := randMat(rng, 4, 3)
	labels := []int32{0, 2, 1, 2}
	_, grad, err := CrossEntropyInto(tensor.New(4, 3), logits, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	loss := func() float64 {
		l, _, err := CrossEntropyInto(tensor.New(4, 3), logits, labels, 1)
		if err != nil {
			t.Fatal(err)
		}
		return float64(l)
	}
	checkGrad(t, "logits", logits, grad, loss)
}

func TestCrossEntropyScaleLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	logits := randMat(rng, 3, 4)
	labels := []int32{1, 2, 3}
	l1, g1, _ := CrossEntropyInto(tensor.New(3, 4), logits, labels, 1)
	l2, g2, _ := CrossEntropyInto(tensor.New(3, 4), logits, labels, 0.25)
	if math.Abs(float64(l1*0.25-l2)) > 1e-5 {
		t.Fatalf("loss scaling wrong: %v vs %v", l1*0.25, l2)
	}
	for i := range g1.Data {
		if math.Abs(float64(g1.Data[i]*0.25-g2.Data[i])) > 1e-6 {
			t.Fatalf("grad scaling wrong at %d", i)
		}
	}
}

func TestCrossEntropyErrors(t *testing.T) {
	logits := tensor.New(2, 3)
	if _, _, err := CrossEntropyInto(tensor.New(2, 3), logits, []int32{0}, 1); err == nil {
		t.Error("want length mismatch error")
	}
	if _, _, err := CrossEntropyInto(tensor.New(2, 3), logits, []int32{0, 5}, 1); err == nil {
		t.Error("want label range error")
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice(3, 2, []float32{1, 0, 0, 1, 1, 0})
	if acc := Accuracy(logits, []int32{0, 1, 1}); math.Abs(acc-2.0/3) > 1e-9 {
		t.Fatalf("accuracy = %v", acc)
	}
	if Accuracy(tensor.New(0, 2), nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w - 3)^2; gradient = 2(w-3).
	var ps ParamSet
	p := NewParam("w", 1, 1)
	ps.MustAdd(p)
	opt := NewAdam(0.1)
	for i := 0; i < 300; i++ {
		ps.ZeroGrad()
		p.Grad.Data[0] = 2 * (p.Value.Data[0] - 3)
		opt.Step(&ps)
	}
	if math.Abs(float64(p.Value.Data[0]-3)) > 0.05 {
		t.Fatalf("adam converged to %v, want 3", p.Value.Data[0])
	}
	if len(opt.m) != 1 || len(opt.v) != 1 {
		t.Fatalf("adam keeps moments for %d and %d params, want 1", len(opt.m), len(opt.v))
	}
}

// Gradient accumulation across two half-batches must equal the full batch:
// the property Buffalo's Algorithm 2 depends on.
func TestGradientAccumulationEqualsFullBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewLinear("fc", 3, 4, true, rng)
	var ps ParamSet
	l.Register(&ps)
	x := randMat(rng, 6, 3)
	labels := []int32{0, 1, 2, 3, 0, 1}

	// Full batch.
	ps.ZeroGrad()
	y := l.ForwardInto(tensor.New(6, 4), x)
	_, dy, err := CrossEntropyInto(tensor.New(6, 4), y, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	l.BackwardInto(nil, tensor.New(1, 4), x, dy)
	full := l.W.Grad.Clone()

	// Two micro-batches with scale |micro|/|batch| = 0.5.
	ps.ZeroGrad()
	for _, half := range [][2]int{{0, 3}, {3, 6}} {
		sub := tensor.FromSlice(3, 3, x.Data[half[0]*3:half[1]*3])
		suby := l.ForwardInto(tensor.New(3, 4), sub)
		_, dsub, err := CrossEntropyInto(tensor.New(3, 4), suby, labels[half[0]:half[1]], 0.5)
		if err != nil {
			t.Fatal(err)
		}
		l.BackwardInto(nil, tensor.New(1, 4), sub, dsub)
	}
	for i := range full.Data {
		if math.Abs(float64(full.Data[i]-l.W.Grad.Data[i])) > 1e-5 {
			t.Fatalf("accumulated grad differs at %d: %v vs %v", i, full.Data[i], l.W.Grad.Data[i])
		}
	}
}

func TestELUGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randMat(rng, 3, 4)
	r := randMat(rng, 3, 4)
	y := ELUInto(tensor.New(3, 4), x, 1.0)
	dx := ELUBackwardInto(tensor.New(3, 4), x, y, r, 1.0)
	checkGrad(t, "elu.x", x, dx, func() float64 { return dot(ELUInto(tensor.New(3, 4), x, 1.0), r) })
	// Positive side passes through unchanged.
	pos := ELUInto(tensor.New(1, 2), tensor.FromSlice(1, 2, []float32{1, 2}), 1)
	if pos.Data[0] != 1 || pos.Data[1] != 2 {
		t.Fatalf("ELU positive identity broken: %v", pos.Data)
	}
}

// referenceLSTM is the cell as it stood before Forward/Backward were written
// in place: one x_t @ Wx per step, the gate block split into four fresh
// matrices and concatenated back, every elementwise product its own
// allocation, and the products against the zero initial state computed like
// any other. The bodies are that code verbatim, with the allocating tensor
// helpers it used (since deleted) as closures; the new core must reproduce
// its every bit.
type referenceLSTM struct {
	cell  *LSTMCell
	n     int
	steps []referenceStep
}

type referenceStep struct {
	x, hPrev, cPrev, i, f, g, o, c, tanhC *tensor.Matrix
}

func refHadamard(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
	return out
}

func refSigmoidBackwardFromOutput(s, dy *tensor.Matrix) *tensor.Matrix {
	dx := dy.Clone()
	for i, sv := range s.Data {
		dx.Data[i] *= sv * (1 - sv)
	}
	return dx
}

func refTanhBackwardFromOutput(t, dy *tensor.Matrix) *tensor.Matrix {
	dx := dy.Clone()
	for i, tv := range t.Data {
		dx.Data[i] *= 1 - tv*tv
	}
	return dx
}

func (ref *referenceLSTM) splitGates(z *tensor.Matrix) (i, f, g, o *tensor.Matrix) {
	n, h := z.Rows, ref.cell.Hidden
	i, f, g, o = tensor.New(n, h), tensor.New(n, h), tensor.New(n, h), tensor.New(n, h)
	for r := 0; r < n; r++ {
		row := z.Row(r)
		copy(i.Row(r), row[0:h])
		copy(f.Row(r), row[h:2*h])
		copy(g.Row(r), row[2*h:3*h])
		copy(o.Row(r), row[3*h:4*h])
	}
	return i, f, g, o
}

func (ref *referenceLSTM) concatGates(i, f, g, o *tensor.Matrix) *tensor.Matrix {
	n, h := i.Rows, ref.cell.Hidden
	z := tensor.New(n, 4*h)
	for r := 0; r < n; r++ {
		row := z.Row(r)
		copy(row[0:h], i.Row(r))
		copy(row[h:2*h], f.Row(r))
		copy(row[2*h:3*h], g.Row(r))
		copy(row[3*h:4*h], o.Row(r))
	}
	return z
}

func (ref *referenceLSTM) runSequence(xs []*tensor.Matrix) *tensor.Matrix {
	c := ref.cell
	n := xs[0].Rows
	h := tensor.New(n, c.Hidden)
	cs := tensor.New(n, c.Hidden)
	ref.n, ref.steps = n, ref.steps[:0]
	for _, x := range xs {
		z := tensor.New(x.Rows, c.Wx.Value.Cols)
		tensor.MatMulInto(z, x, c.Wx.Value, false)
		tensor.MatMulInto(z, h, c.Wh.Value, true)
		z.AddRowVector(c.B.Value)
		i, f, g, o := ref.splitGates(z)
		i, f, g, o = mapped(i, sigmoid32), mapped(f, sigmoid32), mapped(g, tanh32), mapped(o, sigmoid32)
		newC := refHadamard(f, cs)
		newC.AddInPlace(refHadamard(i, g))
		tanhC := mapped(newC, tanh32)
		newH := refHadamard(o, tanhC)
		ref.steps = append(ref.steps, referenceStep{
			x: x, hPrev: h, cPrev: cs,
			i: i, f: f, g: g, o: o, c: newC, tanhC: tanhC,
		})
		h, cs = newH, newC
	}
	return h
}

func (ref *referenceLSTM) backward(dhFinal *tensor.Matrix, dxs []*tensor.Matrix) {
	c := ref.cell
	T := len(ref.steps)
	dh := dhFinal.Clone()
	dc := tensor.New(ref.n, c.Hidden)
	for t := T - 1; t >= 0; t-- {
		s := ref.steps[t]
		// h = o ⊙ tanh(c)
		do := refHadamard(dh, s.tanhC)
		dtc := refHadamard(dh, s.o)
		// dc += dtc ⊙ (1 - tanh²(c))
		for i2, tv := range s.tanhC.Data {
			dc.Data[i2] += dtc.Data[i2] * (1 - tv*tv)
		}
		// c = f ⊙ cPrev + i ⊙ g
		di := refHadamard(dc, s.g)
		dg := refHadamard(dc, s.i)
		df := refHadamard(dc, s.cPrev)
		dcPrev := refHadamard(dc, s.f)
		// Gate pre-activations.
		dzi := refSigmoidBackwardFromOutput(s.i, di)
		dzf := refSigmoidBackwardFromOutput(s.f, df)
		dzg := refTanhBackwardFromOutput(s.g, dg)
		dzo := refSigmoidBackwardFromOutput(s.o, do)
		dz := ref.concatGates(dzi, dzf, dzg, dzo)
		// Parameter gradients.
		tensor.MatMulATBInto(c.Wx.Grad, s.x, dz, true)
		tensor.MatMulATBInto(c.Wh.Grad, s.hPrev, dz, true)
		bsum := tensor.New(1, dz.Cols)
		dz.SumRowsInto(bsum)
		c.B.Grad.AddInPlace(bsum)
		// Input and recurrent gradients; nothing precedes step 0 to read dh.
		if dxs != nil {
			dxs[t] = tensor.New(dz.Rows, c.In)
			tensor.MatMulABTInto(dxs[t], dz, c.Wx.Value, false)
		}
		if t > 0 {
			dh = tensor.New(dz.Rows, c.Hidden)
			tensor.MatMulABTInto(dh, dz, c.Wh.Value, false)
		}
		dc = dcPrev
	}
}

func sameBits(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
			t.Fatalf("%s[%d] = %v (%08x), want %v (%08x)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]), w, math.Float32bits(w))
		}
	}
}

// stackSteps lays per-step matrices out in the cell's stacked layout: blocks
// of n rows, last step first.
func stackSteps(xs []*tensor.Matrix) *tensor.Matrix {
	T, n, w := len(xs), xs[0].Rows, xs[0].Cols
	out := tensor.New(T*n, w)
	for t, x := range xs {
		copy(out.Data[(T-1-t)*n*w:], x.Data)
	}
	return out
}

// TestLSTMMatchesReferenceCell holds the cell to referenceLSTM bit for bit:
// final h, every dx_t, and the Wx/Wh/b gradients, over the edge shapes and a
// seeded draw, with and without input gradients, on plain allocation and on a
// warm pooled arena, with the stacked inputs projected directly and with the
// projection hoisted to the matrix the steps were gathered from, with one
// LSTMCache value reused from case to case, and through the per-step wrappers.
func TestLSTMMatchesReferenceCell(t *testing.T) {
	shapes := [][4]int{ // n, in, hidden, T
		{5, 4, 4, 1}, // a single step: Wh is never read
		{1, 3, 5, 4}, // one row
		{6, 7, 3, 3}, // hidden % 4 != 0, in != hidden
		{4, 2, 6, 2}, // hidden % 4 != 0, in < hidden
		{30, 64, 64, 5},
		{8, 16, 16, 5},
		{40, 64, 64, 5}, // the stacked products cross the kernels' parallel threshold
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 12; i++ {
		shapes = append(shapes, [4]int{1 + rng.Intn(9), 1 + rng.Intn(9), 1 + rng.Intn(9), 1 + rng.Intn(6)})
	}
	pool := tensor.NewPool()
	var cache LSTMCache // one value through every case below
	for _, sh := range shapes {
		n, in, hidden, T := sh[0], sh[1], sh[2], sh[3]
		cell := NewLSTMCell("lstm", in, hidden, rng)
		for i := range cell.B.Value.Data {
			cell.B.Value.Data[i] += rng.Float32() - 0.5
		}
		var ps ParamSet
		cell.Register(&ps)
		// The steps are gathers of one source matrix, as the aggregator's are,
		// so the hoisted form has something to hoist.
		src := randMat(rng, n+3, in)
		idx := make([][]int, T)
		xs := make([]*tensor.Matrix, T)
		for s := range xs {
			xs[s] = tensor.New(n, in)
			idx[s] = make([]int, n)
			for r := 0; r < n; r++ {
				idx[s][r] = rng.Intn(src.Rows)
				copy(xs[s].Row(r), src.Row(idx[s][r]))
			}
		}
		x := stackSteps(xs)
		dh := randMat(rng, n, hidden)

		ref := &referenceLSTM{cell: cell}
		ps.ZeroGrad()
		wantH := ref.runSequence(xs)
		wantDXs := make([]*tensor.Matrix, T)
		ref.backward(dh, wantDXs)
		wantDX := stackSteps(wantDXs)
		wantGrads := []*tensor.Matrix{cell.Wx.Grad.Clone(), cell.Wh.Grad.Clone(), cell.B.Grad.Clone()}

		for _, withDX := range []bool{true, false} {
			for _, pooled := range []bool{false, true} {
				for _, hoist := range []bool{false, true} {
					name := fmt.Sprintf("n%d in%d h%d T%d dx=%v pooled=%v hoist=%v", n, in, hidden, T, withDX, pooled, hoist)
					var arena *tensor.Arena
					passes := 1
					if pooled {
						arena, passes = tensor.NewArena(pool), 2 // the second pass runs on recycled matrices
					}
					for pass := 0; pass < passes; pass++ {
						ps.ZeroGrad()
						z := arena.Get(T*n, 4*hidden)
						if hoist {
							proj := arena.Get(src.Rows, 4*hidden)
							cell.ProjectInto(proj, src, nil)
							for s := 0; s < T; s++ {
								for r := 0; r < n; r++ {
									copy(z.Row((T-1-s)*n+r), proj.Row(idx[s][r]))
								}
							}
						} else {
							cell.ProjectInto(z, x, nil)
						}
						h := cell.Forward(&cache, arena, z, T)
						sameBits(t, name+" h", h, wantH)
						if got, want := cache.Bytes(), int64(T*n*8*hidden*4); got != want {
							t.Fatalf("%s: cache bytes %d, want %d", name, got, want)
						}
						dz := arena.Get(T*n, 4*hidden)
						cell.Backward(&cache, arena, cell.PackWh(arena), dh, dz)
						var dx *tensor.Matrix
						if withDX {
							dx = arena.Get(T*n, in)
						}
						cell.ProjectBackward(dx, x, dz)
						if withDX {
							sameBits(t, name+" dx", dx, wantDX)
						}
						for gi, g := range []*tensor.Matrix{cell.Wx.Grad, cell.Wh.Grad, cell.B.Grad} {
							sameBits(t, fmt.Sprintf("%s grad %d", name, gi), g, wantGrads[gi])
						}
						arena.Reset()
					}
				}
			}
		}

		// The per-step wrappers are the same core.
		ps.ZeroGrad()
		h, c2 := cell.RunSequence(xs)
		sameBits(t, "RunSequence h", h, wantH)
		if got, want := c2.Bytes(), int64(T*n*(in+8*hidden)*4); got != want {
			t.Fatalf("RunSequence cache bytes %d, want %d", got, want)
		}
		for s, dx := range cell.BackwardSequence(c2, dh) {
			sameBits(t, fmt.Sprintf("BackwardSequence dx[%d]", s), dx, wantDXs[s])
		}
		for gi, g := range []*tensor.Matrix{cell.Wx.Grad, cell.Wh.Grad, cell.B.Grad} {
			sameBits(t, fmt.Sprintf("BackwardSequence grad %d", gi), g, wantGrads[gi])
		}
	}
	if st := pool.Stats(); st.Outstanding != 0 {
		t.Fatalf("pool outstanding %d after every arena reset", st.Outstanding)
	}
}

// TestLSTMShapePanics: the fused loops index raw slices, so the shape checks
// the allocating helpers used to make are explicit.
func TestLSTMShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cell := NewLSTMCell("lstm", 3, 4, rng)
	xs := []*tensor.Matrix{randMat(rng, 2, 3), randMat(rng, 2, 3)}
	_, cache := cell.RunSequence(xs)
	cases := map[string]func(){
		"dhFinal rows":    func() { cell.Backward(cache, nil, cell.PackWh(nil), tensor.New(3, 4), tensor.New(4, 16)) },
		"dhFinal cols":    func() { cell.Backward(cache, nil, cell.PackWh(nil), tensor.New(2, 3), tensor.New(4, 16)) },
		"dz rows":         func() { cell.Backward(cache, nil, cell.PackWh(nil), tensor.New(2, 4), tensor.New(2, 16)) },
		"dz cols":         func() { cell.Backward(cache, nil, cell.PackWh(nil), tensor.New(2, 4), tensor.New(4, 4)) },
		"packed Wh":       func() { cell.Backward(cache, nil, tensor.New(4, 16), tensor.New(2, 4), tensor.New(4, 16)) },
		"no packed Wh":    func() { cell.Backward(cache, nil, nil, tensor.New(2, 4), tensor.New(4, 16)) },
		"projection cols": func() { cell.Forward(&LSTMCache{}, nil, tensor.New(4, 4), 2) },
		"projection rows": func() { cell.Forward(&LSTMCache{}, nil, tensor.New(5, 16), 2) },
		"no steps":        func() { cell.Forward(&LSTMCache{}, nil, tensor.New(4, 16), 0) },
		"input rows":      func() { cell.RunSequence([]*tensor.Matrix{xs[0], randMat(rng, 3, 3)}) },
		"input cols":      func() { cell.RunSequence([]*tensor.Matrix{xs[0], randMat(rng, 2, 4)}) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkLSTMSequence times one forward + backward through the public
// per-step path at the two shapes train-cora-lstm logs (layer 0: 30 rows of
// width 64; layer 1: 8 rows of width 16; five steps each).
func BenchmarkLSTMSequence(b *testing.B) {
	for _, sh := range [][2]int{{30, 64}, {8, 16}} {
		rows, width := sh[0], sh[1]
		b.Run(fmt.Sprintf("%dx%d", rows, width), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cell := NewLSTMCell("bench", width, width, rng)
			xs := make([]*tensor.Matrix, 5)
			for i := range xs {
				xs[i] = randMat(rng, rows, width)
			}
			dh := randMat(rng, rows, width)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, cache := cell.RunSequence(xs)
				cell.BackwardSequence(cache, dh)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/sequence")
		})
	}
}
