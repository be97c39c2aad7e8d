package nn

import (
	"math/rand"
	"testing"
)

// flatSet builds a bucketSet-shaped ParamSet with Xavier values and
// deterministic pseudo-random gradients.
func flatSet(t *testing.T, seed int64) *ParamSet {
	t.Helper()
	ps := bucketSet(t)
	rng := rand.New(rand.NewSource(seed))
	for _, p := range ps.Params() {
		p.InitXavier(rng)
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.Float32()*2 - 1
		}
	}
	return ps
}

// TestFlattenIndexInvariants: every parameter appears exactly once, items
// tile each bucket contiguously from its offset, padding lives only at
// bucket tails (less than one shard's worth each), and every bucket length
// is a multiple of the shard count.
func TestFlattenIndexInvariants(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4} {
		for _, bucketBytes := range []int64{0, 1, 300, 600, 1 << 20} {
			ps := flatSet(t, 1)
			fb, err := ps.Flatten(bucketBytes, shards)
			if err != nil {
				t.Fatal(err)
			}
			if ps.Flat() != fb {
				t.Fatalf("shards=%d bucketBytes=%d: Flat() does not return the flatten result", shards, bucketBytes)
			}
			seen := make(map[int]bool)
			covered := 0
			for bi, b := range fb.Buckets() {
				if b.Len%shards != 0 {
					t.Fatalf("shards=%d bucketBytes=%d: bucket %d length %d not a multiple of shards", shards, bucketBytes, bi, b.Len)
				}
				if b.Off != covered {
					t.Fatalf("shards=%d bucketBytes=%d: bucket %d offset %d, want %d (buckets must tile the buffer)", shards, bucketBytes, bi, b.Off, covered)
				}
				covered += b.Len
				used := 0
				for _, pi := range b.Indices {
					if seen[pi] {
						t.Fatalf("shards=%d bucketBytes=%d: param %d in two buckets", shards, bucketBytes, pi)
					}
					seen[pi] = true
					it := fb.Items()[pi]
					if it.Bucket != bi {
						t.Fatalf("param %d: item bucket %d, membership bucket %d", pi, it.Bucket, bi)
					}
					if it.Offset != b.Off+used {
						t.Fatalf("param %d: offset %d, want contiguous %d — padding must sit at the bucket tail only", pi, it.Offset, b.Off+used)
					}
					if it.Size != len(ps.Params()[pi].Grad.Data) {
						t.Fatalf("param %d: item size %d, tensor has %d elements", pi, it.Size, len(ps.Params()[pi].Grad.Data))
					}
					used += it.Size
				}
				pad := b.Len - used
				if pad < 0 || pad >= shards {
					t.Fatalf("shards=%d bucketBytes=%d: bucket %d pads %d elements (want 0 <= pad < shards)", shards, bucketBytes, bi, pad)
				}
			}
			if len(seen) != len(ps.Params()) {
				t.Fatalf("shards=%d bucketBytes=%d: %d of %d params placed", shards, bucketBytes, len(seen), len(ps.Params()))
			}
			if covered != fb.TotalElems() {
				t.Fatalf("buckets cover %d elems, buffer has %d", covered, fb.TotalElems())
			}
			if fb.ShardElems()*shards != fb.TotalElems() {
				t.Fatalf("shard elems %d × %d shards != total %d", fb.ShardElems(), shards, fb.TotalElems())
			}
			if shards == 1 && fb.PaddingElems() != 0 {
				t.Fatalf("single shard must pad nothing, padded %d", fb.PaddingElems())
			}
		}
	}
}

// TestFlattenViewsAlias: Param.Value/Param.Grad are zero-copy views — writes
// through the parameter tensors land in the flat buffers and vice versa, and
// flattening preserves the pre-flatten contents bit for bit.
func TestFlattenViewsAlias(t *testing.T) {
	ps := flatSet(t, 2)
	type snap struct{ vals, grads []float32 }
	before := make([]snap, len(ps.Params()))
	for i, p := range ps.Params() {
		before[i] = snap{
			vals:  append([]float32(nil), p.Value.Data...),
			grads: append([]float32(nil), p.Grad.Data...),
		}
	}
	fb, err := ps.Flatten(300, 2)
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range ps.Params() {
		for i := range p.Value.Data {
			if p.Value.Data[i] != before[pi].vals[i] {
				t.Fatalf("param %d value[%d] changed across Flatten", pi, i)
			}
			if p.Grad.Data[i] != before[pi].grads[i] {
				t.Fatalf("param %d grad[%d] changed across Flatten", pi, i)
			}
		}
		it := fb.Items()[pi]
		// Mutate through the parameter view; observe in the flat buffer.
		p.Grad.Data[0] = 42
		if fb.Grads()[it.Offset] != 42 {
			t.Fatalf("param %d: grad write not visible in flat buffer", pi)
		}
		// Mutate the flat buffer; observe through the view.
		fb.Values()[it.Offset+it.Size-1] = -7
		if p.Value.Data[len(p.Value.Data)-1] != -7 {
			t.Fatalf("param %d: flat value write not visible through view", pi)
		}
	}
	// ZeroGrad on the flat set clears the whole buffer, views included.
	ps.ZeroGrad()
	for i, g := range fb.Grads() {
		if g != 0 {
			t.Fatalf("flat grad[%d] = %v after ZeroGrad", i, g)
		}
	}
}

func TestFlattenErrors(t *testing.T) {
	ps := flatSet(t, 3)
	if _, err := ps.Flatten(300, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Flatten(300, 2); err == nil {
		t.Fatal("want error on double flatten")
	}
	empty := &ParamSet{}
	if _, err := empty.Flatten(300, 2); err == nil {
		t.Fatal("want error on empty set")
	}
}

// TestFlatAccumulateBitIdentical: the flat fast paths of AddGradsFrom /
// AddGradsFromBucket / CopyValuesFrom produce bit-identical tensors to the
// per-parameter loops, and padding elements stay zero throughout.
func TestFlatAccumulateBitIdentical(t *testing.T) {
	refDst, refSrc := flatSet(t, 4), flatSet(t, 5)
	if err := refDst.AddGradsFrom(refSrc); err != nil {
		t.Fatal(err)
	}
	flatDst, flatSrc := flatSet(t, 4), flatSet(t, 5)
	fbDst, err := flatDst.Flatten(300, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flatSrc.Flatten(300, 4); err != nil {
		t.Fatal(err)
	}
	if err := flatDst.AddGradsFrom(flatSrc); err != nil {
		t.Fatal(err)
	}
	for pi, p := range flatDst.Params() {
		for i, g := range p.Grad.Data {
			if g != refDst.Params()[pi].Grad.Data[i] {
				t.Fatalf("param %d grad[%d]: flat %v, per-tensor %v", pi, i, g, refDst.Params()[pi].Grad.Data[i])
			}
		}
	}
	// Bucketed accumulation over the flat index matches too.
	bDst, bSrc := flatSet(t, 4), flatSet(t, 5)
	if _, err := bDst.Flatten(300, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := bSrc.Flatten(300, 4); err != nil {
		t.Fatal(err)
	}
	for _, b := range bDst.Flat().Buckets() {
		if err := bDst.AddGradsFromBucket(bSrc, b); err != nil {
			t.Fatal(err)
		}
	}
	for pi, p := range bDst.Params() {
		for i, g := range p.Grad.Data {
			if g != refDst.Params()[pi].Grad.Data[i] {
				t.Fatalf("param %d grad[%d]: flat bucketed %v, per-tensor %v", pi, i, g, refDst.Params()[pi].Grad.Data[i])
			}
		}
	}
	// Padding never picks up signal.
	for bi, b := range fbDst.Buckets() {
		used := 0
		for _, pi := range b.Indices {
			used += fbDst.Items()[pi].Size
		}
		for i := b.Off + used; i < b.Off+b.Len; i++ {
			if fbDst.Grads()[i] != 0 || fbDst.Values()[i] != 0 {
				t.Fatalf("bucket %d padding elem %d is nonzero", bi, i)
			}
		}
	}
	// CopyValuesFrom flat path replicates values exactly.
	cpy := flatSet(t, 6)
	if _, err := cpy.Flatten(300, 4); err != nil {
		t.Fatal(err)
	}
	if err := cpy.CopyValuesFrom(flatSrc); err != nil {
		t.Fatal(err)
	}
	for pi, p := range cpy.Params() {
		for i, v := range p.Value.Data {
			if v != flatSrc.Params()[pi].Value.Data[i] {
				t.Fatalf("param %d value[%d] differs after flat CopyValuesFrom", pi, i)
			}
		}
	}
}

// TestStepFlatMatchesStep: a full-range flat Adam matches the map-backed
// Step bit for bit, and so does a set of per-shard Adams covering the buffer
// — the ZeRO-1 bit-identity claim at the optimizer level.
func TestStepFlatMatchesStep(t *testing.T) {
	const iters = 3
	ref := flatSet(t, 7)
	refOpt := NewAdam(0.01)
	for it := 0; it < iters; it++ {
		refOpt.Step(ref)
	}

	full := flatSet(t, 7)
	fbFull, err := full.Flatten(300, 2)
	if err != nil {
		t.Fatal(err)
	}
	fullOpt := NewAdamShard(0.01, 0, fbFull.TotalElems())
	for it := 0; it < iters; it++ {
		fullOpt.StepFlat(fbFull)
	}
	for pi, p := range full.Params() {
		for i, v := range p.Value.Data {
			if v != ref.Params()[pi].Value.Data[i] {
				t.Fatalf("param %d value[%d]: full-range StepFlat %v, map Step %v", pi, i, v, ref.Params()[pi].Value.Data[i])
			}
		}
	}
	if fullOpt.StateBytes() != int64(2*fbFull.TotalElems()*4) {
		t.Fatalf("full-range flat Adam StateBytes %d, want %d", fullOpt.StateBytes(), 2*fbFull.TotalElems()*4)
	}

	for _, shards := range []int{2, 4} {
		sh := flatSet(t, 7)
		fb, err := sh.Flatten(300, shards)
		if err != nil {
			t.Fatal(err)
		}
		opts := make([]*Adam, shards)
		for s := range opts {
			lo, hi := fb.ShardRange(s)
			opts[s] = NewAdamShard(0.01, lo, hi)
		}
		for it := 0; it < iters; it++ {
			for _, o := range opts {
				o.StepFlat(fb)
			}
		}
		for pi, p := range sh.Params() {
			for i, v := range p.Value.Data {
				if v != ref.Params()[pi].Value.Data[i] {
					t.Fatalf("shards=%d: param %d value[%d]: sharded StepFlat %v, map Step %v", shards, pi, i, v, ref.Params()[pi].Value.Data[i])
				}
			}
		}
		// Each shard optimizer holds moments for its shard alone: 1/shards
		// of the full-range state.
		if got, want := opts[0].StateBytes(), int64(2*fb.ShardElems()*4); got != want {
			t.Fatalf("shards=%d: shard optimizer StateBytes %d, want %d", shards, got, want)
		}
	}
}
