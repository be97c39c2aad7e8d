// Package tensor implements the dense float32 matrix kernel used by the
// neural-network stack: allocation, GEMM, transpose products, elementwise
// maps, row/column reductions, and row-wise softmax. It is deliberately
// minimal — just the operations GraphSAGE/GAT forward and backward passes
// need — and allocation-conscious so the simulated-GPU memory ledger can
// account for every buffer a layer creates.
package tensor

import (
	"math"
	"runtime"
	"strconv"
	"sync"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len Rows*Cols, row-major

	// released marks a matrix currently sitting in a Pool free list; Put
	// panics on an already-released matrix so aliasing bugs fail loudly.
	released bool
}

// panicShape reports a dimension violation. Every kernel panic funnels
// through here so the message formatting (and its interface boxing) sits in
// one cold function instead of on every hot-path allocation-census root that
// reaches a kernel; the variadic ...int spread is census-free at call sites.
func panicShape(op string, dims ...int) {
	msg := "tensor: " + op
	for i, d := range dims {
		switch {
		case i == 0:
			msg += " "
		case i%2 == 1:
			msg += "x"
		default:
			msg += " vs "
		}
		msg += strconv.Itoa(d)
	}
	panic(msg)
}

// New allocates a zeroed rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panicShape("negative dims", rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows x cols matrix.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panicShape("data len mismatch", len(data), 1, rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Bytes reports the storage footprint of the matrix payload.
func (m *Matrix) Bytes() int64 { return int64(len(m.Data)) * 4 }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice view (aliasing the matrix storage).
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// RowRange returns rows [lo, hi) of m as a matrix value sharing m's storage —
// a view for handing a block of a stacked matrix to a kernel without
// allocating. Views are not pool citizens: never Put one.
func (m *Matrix) RowRange(lo, hi int) Matrix {
	return Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// Clone returns a deep copy. Only tests call it: it is the snapshot helper
// the tests of several packages share.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CopyFrom copies src's contents into m; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panicShape("CopyFrom shape", m.Rows, m.Cols, src.Rows, src.Cols)
	}
	copy(m.Data, src.Data)
}

// The three GEMM kernels below share one accumulation contract. Every output
// element is owned by exactly one worker (parallelRows splits output rows),
// and is computed as a left-to-right float32 sum over the reduction index in
// ascending order: starting from the element's prior value when accumulate is
// set and from zero otherwise for MatMulInto/MatMulATBInto, and as a dot
// product summed from zero and then stored (or added once) for MatMulABTInto.
// The x4 unrolling only batches that chain; it never reassociates it. Results
// therefore do not depend on GOMAXPROCS, on which side of
// parallelFlopThreshold a shape falls, or on the unroll width. No term is
// skipped for a zero operand, so NaN and Inf propagate as IEEE 754 says.
//
// Where the build has them and the CPU runs them (useVector), the AVX2 kernels
// of gemm_amd64.s compute the same chains, one output element per vector lane;
// the Go loops below are the portable path and the oracle the vector kernels
// are tested against. The two agree in every bit of every non-NaN result; which
// of two NaN operands' payloads a sum keeps is the one thing neither fixes.
//
// out must not share storage with a or b: every kernel reads its operands
// while it writes out.

// checkGEMM panics unless every operand's Data holds the Rows*Cols elements
// its shape promises. Matrix's fields are exported, and the vector kernels
// index by shape alone, with no bounds check behind them.
func checkGEMM(op string, out, a, b *Matrix) {
	for _, m := range [...]*Matrix{out, a, b} {
		if m.Rows < 0 || m.Cols < 0 || (m.Cols > 0 && m.Rows > len(m.Data)/m.Cols) {
			panicShape(op+" data len", len(m.Data), 1, m.Rows, m.Cols)
		}
	}
}

// MatMulInto computes out = a @ b, or out += a @ b when accumulate is true.
// Rows of out are disjoint, so large products parallelize across them.
func MatMulInto(out, a, b *Matrix, accumulate bool) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panicShape("matmul shapes", a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols)
	}
	checkGEMM("matmul", out, a, b)
	kk, n := a.Cols, b.Cols
	ad, bd, od := a.Data, b.Data, out.Data
	if useVector && a.Rows > 0 && kk > 0 && n > 0 {
		gemmVector(od, ad, bd, a.Rows, kk, n, kk, 1, accumulate)
		return
	}
	parallelRows(a.Rows, int64(a.Rows)*int64(kk)*int64(n), func(lo, hi int) {
		matMulRange(od, ad, bd, lo, hi, kk, n, accumulate)
	})
}

// matMulRange is MatMulInto's portable loop over out's rows [lo, hi): out is
// [· x n], a [· x kk] and b [kk x n], all row-major.
func matMulRange(od, ad, bd []float32, lo, hi, kk, n int, accumulate bool) {
	for i := lo; i < hi; i++ {
		orow := od[i*n : (i+1)*n]
		if !accumulate {
			clear(orow)
		}
		arow := ad[i*kk : (i+1)*kk]
		k := 0
		for ; k+4 <= kk; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			b0 := bd[k*n : (k+1)*n][:len(orow)]
			b1 := bd[(k+1)*n : (k+2)*n][:len(orow)]
			b2 := bd[(k+2)*n : (k+3)*n][:len(orow)]
			b3 := bd[(k+3)*n : (k+4)*n][:len(orow)]
			for j, o := range orow {
				orow[j] = o + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < kk; k++ {
			av := arow[k]
			brow := bd[k*n : (k+1)*n][:len(orow)]
			for j, o := range orow {
				orow[j] = o + av*brow[j]
			}
		}
	}
}

// parallelFlopThreshold is the scalar-multiply count above which the GEMM
// kernels fan out across GOMAXPROCS goroutines.
const parallelFlopThreshold = 1 << 21

// parallelRows runs fn over [0, n) row ranges, in parallel when the work
// estimate justifies goroutine overhead.
func parallelRows(n int, flops int64, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if flops < parallelFlopThreshold || workers < 2 || n < 2 {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMulATBInto computes out = aᵀ @ b, or out += aᵀ @ b when accumulate.
// Workers own disjoint ranges of out's rows (columns of a) and each scans all
// of a and b.
func MatMulATBInto(out, a, b *Matrix, accumulate bool) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panicShape("matmulATB shapes", a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols)
	}
	checkGEMM("matmulATB", out, a, b)
	m, ka, n := a.Rows, a.Cols, b.Cols
	ad, bd, od := a.Data, b.Data, out.Data
	if useVector && m > 0 && ka > 0 && n > 0 {
		gemmVector(od, ad, bd, ka, m, n, 1, ka, accumulate)
		return
	}
	parallelRows(ka, int64(m)*int64(ka)*int64(n), func(lo, hi int) {
		matMulATBRange(od, ad, bd, lo, hi, m, ka, n, accumulate)
	})
}

// matMulATBRange is MatMulATBInto's portable loop over out's rows [lo, hi)
// (columns of a): out is [ka x n], a [m x ka] and b [m x n], all row-major.
func matMulATBRange(od, ad, bd []float32, lo, hi, m, ka, n int, accumulate bool) {
	if !accumulate {
		clear(od[lo*n : hi*n])
	}
	r := 0
	for ; r+4 <= m; r += 4 {
		a0 := ad[r*ka+lo : r*ka+hi]
		a1 := ad[(r+1)*ka+lo : (r+1)*ka+hi][:len(a0)]
		a2 := ad[(r+2)*ka+lo : (r+2)*ka+hi][:len(a0)]
		a3 := ad[(r+3)*ka+lo : (r+3)*ka+hi][:len(a0)]
		b0 := bd[r*n : (r+1)*n]
		b1 := bd[(r+1)*n : (r+2)*n][:len(b0)]
		b2 := bd[(r+2)*n : (r+3)*n][:len(b0)]
		b3 := bd[(r+3)*n : (r+4)*n][:len(b0)]
		for i, v0 := range a0 {
			v1, v2, v3 := a1[i], a2[i], a3[i]
			orow := od[(lo+i)*n : (lo+i+1)*n][:len(b0)]
			for j, o := range orow {
				orow[j] = o + v0*b0[j] + v1*b1[j] + v2*b2[j] + v3*b3[j]
			}
		}
	}
	for ; r < m; r++ {
		brow := bd[r*n : (r+1)*n]
		for i, av := range ad[r*ka+lo : r*ka+hi] {
			orow := od[(lo+i)*n : (lo+i+1)*n][:len(brow)]
			for j, o := range orow {
				orow[j] = o + av*brow[j]
			}
		}
	}
}

// rowPanelFloats sizes the stack panel MatMulRowsInto and MatMulRowsATBInto
// copy a's indexed rows into: 64 rows of 128-wide features, 32 of 256-wide,
// in 32 KB.
const rowPanelFloats = 8192

// checkRowIndex panics unless every entry of idx names a row of a. The GEMM
// kernels index by shape alone, so this runs before anything is written.
func checkRowIndex(op string, a *Matrix, idx []int32) {
	for _, r := range idx {
		if uint(r) >= uint(a.Rows) { // negative indices wrap above any row count
			panicShape(op+" index", int(r), 1, a.Rows, a.Cols)
		}
	}
}

// MatMulRowsInto computes out = a[idx] @ b, or out += a[idx] @ b when
// accumulate: row i of the product reads row idx[i] of a, so a is a table
// looked up by idx (repeats allowed) and out has len(idx) rows. A nil idx is
// the identity, MatMulInto(out, a, b, accumulate). Otherwise the named rows are
// copied into a stack panel, as many as it holds at a time, and each panel is
// multiplied by the kernel MatMulInto dispatches to. Output rows are
// independent chains, so every element has the bits MatMulInto gives for the
// gathered matrix. A row too wide for the panel is multiplied where it lies.
func MatMulRowsInto(out, a *Matrix, idx []int32, b *Matrix, accumulate bool) {
	if idx == nil {
		MatMulInto(out, a, b, accumulate)
		return
	}
	if a.Cols != b.Rows || out.Rows != len(idx) || out.Cols != b.Cols {
		panicShape("matmulRows shapes", len(idx), a.Cols, b.Rows, b.Cols, out.Rows, out.Cols)
	}
	checkGEMM("matmulRows", out, a, b)
	checkRowIndex("matmulRows", a, idx)
	kk, n := a.Cols, b.Cols
	switch {
	case len(idx) == 0 || n == 0:
		return
	case kk == 0:
		if !accumulate {
			clear(out.Data[:len(idx)*n])
		}
		return
	case kk > rowPanelFloats:
		for i, r := range idx {
			ar, or := a.RowRange(int(r), int(r)+1), out.RowRange(i, i+1)
			MatMulInto(&or, &ar, b, accumulate)
		}
		return
	}
	var pack [rowPanelFloats]float32
	rows := rowPanelFloats / kk
	for i0 := 0; i0 < len(idx); i0 += rows {
		m := min(rows, len(idx)-i0)
		p := pack[:m*kk]
		for i, r := range idx[i0 : i0+m] {
			copy(p[i*kk:(i+1)*kk], a.Data[int(r)*kk:(int(r)+1)*kk])
		}
		o := out.Data[i0*n : (i0+m)*n]
		if useVector {
			gemmVector(o, p, b.Data, m, kk, n, kk, 1, accumulate)
		} else {
			matMulRange(o, p, b.Data, 0, m, kk, n, accumulate)
		}
	}
}

// MatMulRowsATBInto computes out = a[idx]ᵀ @ b, or out += a[idx]ᵀ @ b when
// accumulate: row i of b pairs with row idx[i] of a. A nil idx is the
// identity, MatMulATBInto(out, a, b, accumulate). Otherwise the named rows are
// copied into a stack panel as MatMulRowsInto does, and each panel's product
// continues every element's chain from the value the previous panel stored
// (the first panel starts it as MatMulATBInto would), so the sum runs over the
// rows in ascending order with the bits MatMulATBInto gives for the gathered
// matrix.
func MatMulRowsATBInto(out, a *Matrix, idx []int32, b *Matrix, accumulate bool) {
	if idx == nil {
		MatMulATBInto(out, a, b, accumulate)
		return
	}
	if len(idx) != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panicShape("matmulRowsATB shapes", len(idx), a.Cols, b.Rows, b.Cols, out.Rows, out.Cols)
	}
	checkGEMM("matmulRowsATB", out, a, b)
	checkRowIndex("matmulRowsATB", a, idx)
	ka, n := a.Cols, b.Cols
	switch {
	case ka == 0 || n == 0:
		return
	case len(idx) == 0:
		if !accumulate {
			clear(out.Data[:ka*n])
		}
		return
	case ka > rowPanelFloats:
		for i, r := range idx {
			ar, br := a.RowRange(int(r), int(r)+1), b.RowRange(i, i+1)
			MatMulATBInto(out, &ar, &br, accumulate || i > 0)
		}
		return
	}
	var pack [rowPanelFloats]float32
	rows := rowPanelFloats / ka
	od := out.Data[:ka*n]
	for i0 := 0; i0 < len(idx); i0 += rows {
		m := min(rows, len(idx)-i0)
		p := pack[:m*ka]
		for i, r := range idx[i0 : i0+m] {
			copy(p[i*ka:(i+1)*ka], a.Data[int(r)*ka:(int(r)+1)*ka])
		}
		bp := b.Data[i0*n : (i0+m)*n]
		acc := accumulate || i0 > 0
		if useVector {
			gemmVector(od, p, bp, ka, m, n, 1, ka, acc)
		} else {
			matMulATBRange(od, p, bp, 0, ka, m, ka, n, acc)
		}
	}
}

// MatMulABTInto computes out = a @ bᵀ, or out += a @ bᵀ when accumulate.
// Four output columns are computed at once so the dot products' addition
// chains overlap; each is still its own ascending sum.
func MatMulABTInto(out, a, b *Matrix, accumulate bool) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panicShape("matmulABT shapes", a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols)
	}
	checkGEMM("matmulABT", out, a, b)
	kk, nb := a.Cols, b.Rows
	ad, bd, od := a.Data, b.Data, out.Data
	if useVector && a.Rows > 0 && kk > 0 && nb > 0 && gemmABTVector(od, ad, bd, a.Rows, kk, nb, accumulate) {
		return
	}
	parallelRows(a.Rows, int64(a.Rows)*int64(kk)*int64(nb), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := ad[i*kk : (i+1)*kk]
			orow := od[i*nb : (i+1)*nb]
			j := 0
			for ; j+4 <= nb; j += 4 {
				b0 := bd[j*kk : (j+1)*kk][:len(arow)]
				b1 := bd[(j+1)*kk : (j+2)*kk][:len(arow)]
				b2 := bd[(j+2)*kk : (j+3)*kk][:len(arow)]
				b3 := bd[(j+3)*kk : (j+4)*kk][:len(arow)]
				var s0, s1, s2, s3 float32
				for k, av := range arow {
					s0 += av * b0[k]
					s1 += av * b1[k]
					s2 += av * b2[k]
					s3 += av * b3[k]
				}
				o := orow[j : j+4 : j+4]
				if accumulate {
					s0, s1, s2, s3 = o[0]+s0, o[1]+s1, o[2]+s2, o[3]+s3
				}
				o[0], o[1], o[2], o[3] = s0, s1, s2, s3
			}
			for ; j < nb; j++ {
				brow := bd[j*kk : (j+1)*kk][:len(arow)]
				var s float32
				for k, av := range arow {
					s += av * brow[k]
				}
				if accumulate {
					s += orow[j]
				}
				orow[j] = s
			}
		}
	})
}

// MeanRowsInto writes into out the mean of the rows of src that idx names,
// repeats included. Per element the float32 chain is 0 + x0 + x1 + … over idx
// in ascending position, × 1/len(idx), then 0 + · — what gathering the rows,
// summing them with AddInPlace, Scale and an add into a zeroed row compute
// (the closing 0 + · turns an underflowed -0 into +0; the product goes through
// an explicit float32() so nothing may fuse it). Rows are consumed four at a
// time with the sum still written left-associated. out's prior content is not
// read, and out must not share storage with src.
//
// Where the build has it and the CPU runs it (useVector), the AVX2 kernel of
// rows_amd64.s computes the same chain, one element per vector lane; the Go
// loop is the portable path and the kernel's oracle, under the GEMMs'
// contract: every bit of every non-NaN result, NaN where NaN. The kernel
// indexes src by idx alone with no bounds check behind it, so every index is
// range-checked here first, before either path writes anything.
func MeanRowsInto(out []float32, src *Matrix, idx []int32) {
	n := len(out)
	if src.Cols != n || len(idx) == 0 {
		panicShape("MeanRowsInto shape", len(idx), n, src.Rows, src.Cols)
	}
	if src.Rows < 0 || (n > 0 && src.Rows > len(src.Data)/n) {
		panicShape("MeanRowsInto data len", len(src.Data), 1, src.Rows, src.Cols)
	}
	for _, r := range idx {
		if uint(r) >= uint(src.Rows) { // negative indices wrap above any row count
			panicShape("MeanRowsInto index", int(r), 1, src.Rows, src.Cols)
		}
	}
	if n == 0 {
		return
	}
	scale := 1 / float32(len(idx))
	if useVector {
		meanRowsAVX2(&out[0], &src.Data[0], &idx[0], len(idx), n, scale)
		return
	}
	clear(out)
	t := 0
	for ; t+4 <= len(idx); t += 4 {
		a, b := src.Row(int(idx[t]))[:n], src.Row(int(idx[t+1]))[:n]
		c, d := src.Row(int(idx[t+2]))[:n], src.Row(int(idx[t+3]))[:n]
		for j := range out {
			out[j] = out[j] + a[j] + b[j] + c[j] + d[j]
		}
	}
	for ; t < len(idx); t++ {
		a := src.Row(int(idx[t]))[:n]
		for j := range out {
			out[j] += a[j]
		}
	}
	for j, v := range out {
		out[j] = 0 + float32(v*scale) // the conversion forbids fusing the two
	}
}

// TransposeInto writes srcᵀ into dst [src.Cols x src.Rows]. It walks src in
// strips of 16 rows, so every dst row takes 16 consecutive floats at a time:
// one element per dst row would stride a whole row per write, and at a
// 256-float row that stride maps every write to a quarter of L1's sets.
func TransposeInto(dst, src *Matrix) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panicShape("TransposeInto shapes", src.Rows, src.Cols, dst.Rows, dst.Cols)
	}
	const strip = 16
	for i0 := 0; i0 < src.Rows; i0 += strip {
		i1 := min(i0+strip, src.Rows)
		for j := 0; j < src.Cols; j++ {
			drow := dst.Data[j*dst.Cols+i0 : j*dst.Cols+i1]
			for i := range drow {
				drow[i] = src.Data[(i0+i)*src.Cols+j]
			}
		}
	}
}

// AddInPlace computes m += other elementwise.
func (m *Matrix) AddInPlace(other *Matrix) {
	checkSameShape("AddInPlace", m, other)
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// AddRowVector adds vec (1 x Cols) to every row of m (bias broadcast).
func (m *Matrix) AddRowVector(vec *Matrix) {
	if vec.Rows != 1 || vec.Cols != m.Cols {
		panicShape("AddRowVector shape", vec.Rows, vec.Cols, m.Rows, m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += vec.Data[j]
		}
	}
}

// SumRowsInto overwrites out (1 x Cols) with the column-wise sum of m.
func (m *Matrix) SumRowsInto(out *Matrix) {
	if out.Rows != 1 || out.Cols != m.Cols {
		panicShape("SumRowsInto shape", out.Rows, out.Cols, m.Rows, m.Cols)
	}
	out.Zero()
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j] += v
		}
	}
}

// SoftmaxRowsInto writes the numerically stable row-wise softmax of m into
// out (same shape): per row, e_j = float32(math.Exp(float64(v_j - max)))
// (trans.go's exp, vector where the build has it), their left-to-right float32
// sum, and each e_j times 1/sum.
func SoftmaxRowsInto(out, m *Matrix) {
	checkSameShape("SoftmaxRowsInto", out, m)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		orow := out.Row(i)
		mx := float32(math.Inf(-1))
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		for j, v := range row {
			orow[j] = v - mx
		}
		expInto(orow, orow)
		var sum float32
		for _, e := range orow {
			sum += e
		}
		inv := 1 / sum
		for j := range orow {
			orow[j] *= inv
		}
	}
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panicShape(op+" shape mismatch", a.Rows, a.Cols, b.Rows, b.Cols)
	}
}
