package tensor

// The LSTM cell's per-element gate arithmetic, one recurrence step over a
// block of rows. A gate row is the four blocks i|f|g|o of width h; c, tanh(c)
// and h rows are of width h; the previous cell state is either a block of rows
// like c's or one row shared by every row (the zero state before step 0).
//
// Where the build has it and the CPU runs it (useVector), gates_amd64.s
// computes each element's float32 chain eight columns at a time: the same
// VMULPS/VADDPS/VSUBPS in the same order as the Go loops here, never an FMA,
// never a sum across lanes. The kernels stop at the last whole group of eight
// columns of a row, and the Go loop finishes the row's remaining columns, so
// no row is read or written past its end. The Go loops are the portable path
// and the kernels' oracle, under the GEMMs' contract: every bit of every
// non-NaN result, NaN where NaN (DESIGN.md §6).

// The two row maps of gatesAVX2.
const (
	gatesCell   = 0 // out = f⊙prev + i⊙g
	gatesHidden = 1 // out = o⊙prev
)

// LSTMStepInto runs one step's forward arithmetic over rows of pre-activations
// z [rows x 4h] without bias: z += b (b [1 x 4h]); i, f, o = σ(z) and
// g = tanh(z) in place; then c = f⊙cPrev + i⊙g, tanhC = tanh(c) and
// h = o⊙tanhC into c, tanhC and h [rows x h]. cPrev is [rows x h], or [1 x h]
// for one state shared by every row. Per element each product is rounded to
// float32 before the add; σ and tanh are SigmoidInto's and TanhInto's. Every
// element of c, tanhC and h is written; none of them is read first, and none
// may share storage with z or cPrev.
func LSTMStepInto(z, b, cPrev, c, tanhC, h *Matrix) {
	rows, hd := z.Rows, c.Cols
	checkGates("LSTMStepInto", z, cPrev, hd)
	if b.Rows != 1 || b.Cols != 4*hd {
		panicShape("LSTMStepInto bias", b.Rows, b.Cols, 1, 4*hd)
	}
	checkState("LSTMStepInto", "cell state", c, rows, hd)
	checkState("LSTMStepInto", "tanh of the cell state", tanhC, rows, hd)
	checkState("LSTMStepInto", "hidden state", h, rows, hd)
	if rows == 0 || hd == 0 {
		return
	}
	z.AddRowVector(b)
	for r := 0; r < rows; r++ {
		zr := z.Data[r*4*hd : (r+1)*4*hd]
		SigmoidInto(zr[:2*hd], zr[:2*hd]) // i|f
		TanhInto(zr[2*hd:3*hd], zr[2*hd:3*hd])
		SigmoidInto(zr[3*hd:], zr[3*hd:])
	}
	gatesMap(gatesCell, c.Data, z.Data, cPrev.Data, rows, hd, prevStride(cPrev))
	TanhInto(tanhC.Data[:rows*hd], c.Data[:rows*hd])
	gatesMap(gatesHidden, h.Data, z.Data, tanhC.Data, rows, hd, hd)
}

// gatesMap writes out[r] = f⊙prev[r] + i⊙g (gatesCell) or o⊙prev[r]
// (gatesHidden) for each of rows gate rows, prev rows prevStride apart.
func gatesMap(op int, out, gates, prev []float32, rows, hd, prevStride int) {
	j0 := 0
	if useVector && hd >= 8 {
		gatesAVX2(&out[0], &gates[0], &prev[0], rows, hd, prevStride, op)
		j0 = hd &^ 7
	}
	if j0 == hd {
		return
	}
	for r := 0; r < rows; r++ {
		g := gates[r*4*hd : (r+1)*4*hd]
		p := prev[r*prevStride : r*prevStride+hd]
		o := out[r*hd : (r+1)*hd]
		if op == gatesCell {
			gi, gf, gg := g[:hd], g[hd:2*hd], g[2*hd:3*hd]
			for j := j0; j < hd; j++ {
				o[j] = float32(gf[j]*p[j]) + float32(gi[j]*gg[j])
			}
			continue
		}
		gO := g[3*hd:]
		for j := j0; j < hd; j++ {
			o[j] = gO[j] * p[j]
		}
	}
}

// LSTMStepBackwardInto runs one step's backward arithmetic over the rows
// LSTMStepInto produced: given the activated gates z [rows x 4h], tanhC and
// cPrev as the forward read them, the gradient dh [rows x h] of the step's
// hidden state and, in dc [rows x h], the gradient flowing into its cell state
// from the next step, it overwrites dz [rows x 4h] with the gradient of the
// gate pre-activations, dc with the gradient flowing into cPrev, and bsum
// [1 x 4h] with dz's column sums, rows added in ascending order from +0. Per
// element:
//
//	dcv = dc + (dh⊙o)⊙(1 − tanhC⊙tanhC)
//	di  = (dcv⊙g)⊙(i⊙(1 − i))
//	df  = (dcv⊙cPrev)⊙(f⊙(1 − f))
//	dg  = (dcv⊙i)⊙(1 − g⊙g)
//	do  = (dh⊙tanhC)⊙(o⊙(1 − o))
//	dc  = dcv⊙f
//
// every operation rounded to float32 in the order written. dz, dc and bsum
// share no storage with each other or with the inputs.
func LSTMStepBackwardInto(dz, dc, bsum, z, tanhC, cPrev, dh *Matrix) {
	rows, hd := z.Rows, dc.Cols
	checkGates("LSTMStepBackwardInto", z, cPrev, hd)
	checkState("LSTMStepBackwardInto", "cell gradient", dc, rows, hd)
	checkState("LSTMStepBackwardInto", "tanh of the cell state", tanhC, rows, hd)
	checkState("LSTMStepBackwardInto", "hidden gradient", dh, rows, hd)
	checkState("LSTMStepBackwardInto", "gate gradient", dz, rows, 4*hd)
	checkState("LSTMStepBackwardInto", "bias sum", bsum, 1, 4*hd)
	bs := bsum.Data[:4*hd]
	clear(bs)
	if rows == 0 || hd == 0 {
		return
	}
	j0 := 0
	if useVector && hd >= 8 {
		gatesBackwardAVX2(&dz.Data[0], &dc.Data[0], &bs[0], &z.Data[0], &tanhC.Data[0], &cPrev.Data[0], &dh.Data[0], rows, hd, prevStride(cPrev))
		j0 = hd &^ 7
	}
	if j0 == hd {
		return
	}
	ps := prevStride(cPrev)
	for r := 0; r < rows; r++ {
		g := z.Data[r*4*hd : (r+1)*4*hd]
		gi, gf, gg, gO := g[:hd], g[hd:2*hd], g[2*hd:3*hd], g[3*hd:4*hd]
		d := dz.Data[r*4*hd : (r+1)*4*hd]
		di, df, dg, dO := d[:hd], d[hd:2*hd], d[2*hd:3*hd], d[3*hd:4*hd]
		tc := tanhC.Data[r*hd : (r+1)*hd]
		cp := cPrev.Data[r*ps : r*ps+hd]
		dhr := dh.Data[r*hd : (r+1)*hd]
		dcr := dc.Data[r*hd : (r+1)*hd]
		for j := j0; j < hd; j++ {
			iv, fv, gv, ov, tv := gi[j], gf[j], gg[j], gO[j], tc[j]
			dtc := dhr[j] * ov
			dcv := dcr[j] + float32(dtc*float32(1-float32(tv*tv)))
			di[j] = float32(dcv*gv) * float32(iv*float32(1-iv))
			df[j] = float32(dcv*cp[j]) * float32(fv*float32(1-fv))
			dg[j] = float32(dcv*iv) * float32(1-float32(gv*gv))
			dO[j] = float32(dhr[j]*tv) * float32(ov*float32(1-ov))
			dcr[j] = dcv * fv
			bs[j] += di[j]
			bs[hd+j] += df[j]
			bs[2*hd+j] += dg[j]
			bs[3*hd+j] += dO[j]
		}
	}
}

// prevStride is the distance between consecutive rows' previous cell states:
// 0 for one shared row.
func prevStride(cPrev *Matrix) int {
	if cPrev.Rows == 1 {
		return 0
	}
	return cPrev.Cols
}

// checkGates holds z to [rows x 4h] and cPrev to [rows x h] or [1 x h], with
// Data long enough for either, before any kernel indexes them.
func checkGates(op string, z, cPrev *Matrix, hd int) {
	checkState(op, "gates", z, z.Rows, 4*hd)
	if cPrev.Rows != z.Rows && cPrev.Rows != 1 {
		panicShape(op+" previous cell state", cPrev.Rows, cPrev.Cols, z.Rows, hd)
	}
	checkState(op, "previous cell state", cPrev, cPrev.Rows, hd)
}

// checkState holds m, op's operand what, to [rows x cols] with Data to match.
func checkState(op, what string, m *Matrix, rows, cols int) {
	if m.Rows != rows || m.Cols != cols || len(m.Data) < rows*cols {
		panicShape(op+" "+what, m.Rows, m.Cols, rows, cols)
	}
}
