package nn

import (
	"math/rand"
	"testing"
)

// bucketSet builds a ParamSet with a few differently sized parameters.
func bucketSet(t *testing.T) *ParamSet {
	t.Helper()
	ps := &ParamSet{}
	ps.MustAdd(
		NewParam("w0", 8, 8),  // grad 256 B
		NewParam("w1", 16, 8), // grad 512 B
		NewParam("w2", 4, 4),  // grad 64 B
		NewParam("w3", 32, 8), // grad 1024 B
	)
	return ps
}

func TestGradBytesIsHalfOfBytes(t *testing.T) {
	ps := bucketSet(t)
	if ps.GradBytes()*2 != ps.Bytes() {
		t.Fatalf("GradBytes %d is not half of Bytes %d (value/grad pairing)", ps.GradBytes(), ps.Bytes())
	}
	p := ps.Params()[0]
	if p.GradBytes() != p.Grad.Bytes() {
		t.Fatalf("Param.GradBytes %d != Grad.Bytes %d", p.GradBytes(), p.Grad.Bytes())
	}
}

// TestGradBucketsPartition: the close rule Flatten partitions by, whatever the
// shard count — every parameter appears exactly once, buckets respect the
// byte bound (except unavoidable single-param buckets), order is backward
// (last registered first), and byte sums match the parameters.
func TestGradBucketsPartition(t *testing.T) {
	for _, shards := range []int{1, 3, 4} {
		for _, maxBytes := range []int64{0, 1, 300, 600, 1 << 20} {
			ps := bucketSet(t)
			fb, err := ps.Flatten(maxBytes, shards)
			if err != nil {
				t.Fatal(err)
			}
			buckets := fb.Buckets()
			seen := make(map[int]bool)
			prev := len(ps.Params())
			var total int64
			for bi, b := range buckets {
				if len(b.Indices) == 0 {
					t.Fatalf("maxBytes=%d: bucket %d is empty", maxBytes, bi)
				}
				var sum int64
				for _, i := range b.Indices {
					if seen[i] {
						t.Fatalf("maxBytes=%d: param %d in two buckets", maxBytes, i)
					}
					seen[i] = true
					if i >= prev {
						t.Fatalf("maxBytes=%d: indices not in backward order (%d after %d)", maxBytes, i, prev)
					}
					prev = i
					sum += ps.Params()[i].GradBytes()
				}
				if sum != b.Bytes {
					t.Fatalf("maxBytes=%d: bucket %d reports %d bytes, params sum to %d", maxBytes, bi, b.Bytes, sum)
				}
				if maxBytes > 0 && len(b.Indices) > 1 && b.Bytes > maxBytes {
					t.Fatalf("maxBytes=%d: multi-param bucket %d holds %d bytes", maxBytes, bi, b.Bytes)
				}
				total += b.Bytes
			}
			if len(seen) != len(ps.Params()) {
				t.Fatalf("maxBytes=%d: %d of %d params bucketed", maxBytes, len(seen), len(ps.Params()))
			}
			if total != ps.GradBytes() {
				t.Fatalf("maxBytes=%d: buckets carry %d bytes, set has %d", maxBytes, total, ps.GradBytes())
			}
			// 0 is the monolithic bucket; a bound below every parameter gives
			// one bucket per parameter.
			if want := map[int64]int{0: 1, 1: len(ps.Params())}[maxBytes]; want != 0 && len(buckets) != want {
				t.Fatalf("shards=%d maxBytes=%d: %d buckets, want %d", shards, maxBytes, len(buckets), want)
			}
		}
	}
}

// addGradsRef is the per-parameter reference the flat combine is held to:
// dst's gradients += src's, tensor by tensor in registration order.
func addGradsRef(dst, src *ParamSet) {
	for i, p := range dst.Params() {
		p.Grad.AddInPlace(src.Params()[i].Grad)
	}
}

// TestAddGradsFromBucketMatchesWholeSweep: accumulating bucket by bucket
// performs exactly the per-parameter additions of one whole-set sweep —
// results are bit-identical, whatever the bucket size.
func TestAddGradsFromBucketMatchesWholeSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fill := func(ps *ParamSet) {
		for _, p := range ps.Params() {
			for i := range p.Grad.Data {
				p.Grad.Data[i] = rng.Float32()*2 - 1
			}
		}
	}
	src := bucketSet(t)
	fill(src)
	whole := bucketSet(t)
	fill(whole)
	want := bucketSet(t)
	for pi, p := range want.Params() {
		copy(p.Grad.Data, whole.Params()[pi].Grad.Data)
	}
	addGradsRef(want, src)
	for _, maxBytes := range []int64{0, 300, 1} {
		bucketed, flatSrc := bucketSet(t), bucketSet(t)
		// Same starting grads as the reference.
		for pi, p := range bucketed.Params() {
			copy(p.Grad.Data, whole.Params()[pi].Grad.Data)
			copy(flatSrc.Params()[pi].Grad.Data, src.Params()[pi].Grad.Data)
		}
		fb, err := bucketed.Flatten(maxBytes, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := flatSrc.Flatten(maxBytes, 1); err != nil {
			t.Fatal(err)
		}
		for _, b := range fb.Buckets() {
			if err := bucketed.AddGradsFromBucket(flatSrc, b); err != nil {
				t.Fatal(err)
			}
		}
		for pi, p := range bucketed.Params() {
			for i, v := range p.Grad.Data {
				if v != want.Params()[pi].Grad.Data[i] {
					t.Fatalf("maxBytes=%d: param %d grad[%d] = %v, whole sweep %v", maxBytes, pi, i, v, want.Params()[pi].Grad.Data[i])
				}
			}
		}
	}
}

// TestAddGradsFromBucketMismatch: the combine refuses an unflattened set on
// either side, sets of different layouts, and a bucket outside the buffer.
func TestAddGradsFromBucketMismatch(t *testing.T) {
	flat := func(ps *ParamSet) *ParamSet {
		t.Helper()
		if _, err := ps.Flatten(0, 1); err != nil {
			t.Fatal(err)
		}
		return ps
	}
	ps := flat(bucketSet(t))
	b := ps.flat.Buckets()[0]
	other := &ParamSet{}
	other.MustAdd(NewParam("w0", 8, 8))
	cases := []struct {
		name     string
		dst, src *ParamSet
		b        GradBucket
	}{
		{"unflattened src", ps, bucketSet(t), b},
		{"unflattened dst", bucketSet(t), ps, b},
		{"param count", ps, flat(other), b},
		{"bucket range", ps, flat(bucketSet(t)), GradBucket{Off: b.Len, Len: 1}},
	}
	for _, c := range cases {
		if err := c.dst.AddGradsFromBucket(c.src, c.b); err == nil {
			t.Errorf("%s: want an error", c.name)
		}
	}
}
