package device

import (
	"math/rand"
	"testing"

	"buffalo/internal/obs"
)

// reclaimMarks sums the bytes of the "reclaim" marks recorded for device dev.
func reclaimMarks(events []obs.Event, dev string) (n int, bytes int64) {
	for _, ev := range events {
		if ev.Kind == obs.KindMark && ev.Dev == dev && ev.Name == "reclaim" {
			n++
			bytes += ev.Bytes
		}
	}
	return n, bytes
}

// TestCacheReclaimsOldestFirst caches three chunks in order and allocates
// into the room they hold: each allocation reclaims exactly the excess over
// capacity, so a caller that gives up its oldest cached data first (the
// chunk queue below) keeps its newest chunk whole. Uncache returns bytes
// without an allocation, and neither Cache nor Uncache moves Live or Peak.
func TestCacheReclaimsOldestFirst(t *testing.T) {
	tr := obs.NewTrace()
	g := NewGPU("gpu-c", 1000, WithRecorder(obs.NewRecorder(tr, nil)))
	model, err := g.Alloc("model", 400)
	if err != nil {
		t.Fatal(err)
	}
	chunks := []int64{100, 150, 200} // oldest first; the caller's view
	for _, c := range chunks {
		g.Cache(c)
	}
	if g.Cached() != 450 || g.Live() != 400 || g.Stats().Peak != 400 {
		t.Fatalf("cached %d live %d peak %d, want 450, 400, 400", g.Cached(), g.Live(), g.Stats().Peak)
	}
	// 150 bytes of room are free: a 120-byte charge reclaims nothing.
	a, err := g.Alloc("a", 120)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cached() != 450 {
		t.Fatalf("a charge that fits beside the cache reclaimed %d bytes", 450-g.Cached())
	}
	// 30 free bytes remain: a 160-byte charge reclaims 130 — the whole
	// oldest chunk and 30 bytes of the next.
	b, err := g.Alloc("b", 160)
	if err != nil {
		t.Fatal(err)
	}
	reclaim := func(over int64) {
		for over > 0 {
			take := min(over, chunks[0])
			chunks[0] -= take
			over -= take
			if chunks[0] == 0 {
				chunks = chunks[1:]
			}
		}
	}
	reclaim(130)
	if want := int64(120 + 200); g.Cached() != want || len(chunks) != 2 || chunks[1] != 200 {
		t.Fatalf("cached %d (caller's chunks %v), want %d with the newest 200 whole", g.Cached(), chunks, want)
	}
	if n, bytes := reclaimMarks(tr.Events(), "gpu-c"); n != 1 || bytes != 130 {
		t.Fatalf("%d reclaim marks of %d bytes, want one of 130", n, bytes)
	}
	g.Uncache(20)
	chunks[0] -= 20 // the caller took back 20 bytes of its older chunk
	if g.Cached() != 300 || g.Live() != 680 || g.Stats().Peak != 680 {
		t.Fatalf("after Uncache: cached %d live %d peak %d, want 300, 680, 680", g.Cached(), g.Live(), g.Stats().Peak)
	}
	// A charge of every byte not allocated reclaims the rest of the cache.
	c, err := g.Alloc("c", 320)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cached() != 0 || g.Live() != 1000 {
		t.Fatalf("cached %d live %d, want 0 and 1000", g.Cached(), g.Live())
	}
	for _, x := range []*Allocation{a, b, c, model} {
		x.Free()
	}
	if tl := obs.Reconstruct(tr.Events(), "gpu-c"); tl.Peak != g.Stats().Peak || tl.Final != 0 {
		t.Fatalf("timeline peak %d final %d, ledger peak %d", tl.Peak, tl.Final, g.Stats().Peak)
	}
}

// TestCacheMisusePanics: caching more than is free, or a negative count,
// and uncaching more than is cached are caller bugs and panic.
func TestCacheMisusePanics(t *testing.T) {
	for name, f := range map[string]func(g *GPU){
		"cache beyond free": func(g *GPU) { g.Cache(61) },
		"cache negative":    func(g *GPU) { g.Cache(-1) },
		"uncache too much":  func(g *GPU) { g.Cache(10); g.Uncache(11) },
		"uncache negative":  func(g *GPU) { g.Uncache(-1) },
	} {
		g := NewGPU("p", 100)
		if _, err := g.Alloc("x", 40); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f(g)
		}()
	}
}

// TestCacheLedgerModel drives random charge, free, cache, uncache and peak
// rebase sequences through a recorded GPU against a plain model: a charge
// OOMs exactly when live + size exceeds capacity whatever is cached, one
// that fits reclaims exactly live + cached + size − capacity bytes when that
// is positive, Live and Peak never count cached bytes, and the timeline
// replayed from the trace (reclaims included) peaks at Stats().Peak.
func TestCacheLedgerModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(500 + rng.Intn(5000))
		tr := obs.NewTrace()
		g := NewGPU("m", capacity, WithRecorder(obs.NewRecorder(tr, nil)))
		var held []*Allocation
		var live, cached, peak, reclaimed, reclaims int64
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(6); {
			case op <= 1:
				size := int64(rng.Intn(int(capacity) / 2))
				a, err := g.Alloc("x", size)
				if fits := live+size <= capacity; fits != (err == nil) || (err != nil && !IsOOM(err)) {
					t.Fatalf("seed %d step %d: charge %d at live %d cached %d of %d: err %v",
						seed, step, size, live, cached, capacity, err)
				}
				if err != nil {
					continue
				}
				if over := live + cached + size - capacity; over > 0 {
					cached -= over
					reclaimed += over
					reclaims++
				}
				live += size
				peak = max(peak, live)
				held = append(held, a)
			case op == 2 && len(held) > 0:
				j := rng.Intn(len(held))
				live -= held[j].Bytes
				held[j].Free()
				held = append(held[:j], held[j+1:]...)
			case op == 3:
				n := int64(rng.Intn(int(capacity-live-cached) + 1))
				g.Cache(n)
				cached += n
			case op == 4:
				n := int64(rng.Intn(int(cached) + 1))
				g.Uncache(n)
				cached -= n
			case op == 5 && rng.Intn(4) == 0:
				g.ResetPeak()
				peak = live
			}
			st := g.Stats()
			if st.Live != live || g.Cached() != cached || st.Peak != peak || live+cached > capacity {
				t.Fatalf("seed %d step %d: live %d cached %d peak %d, model %d, %d, %d (capacity %d)",
					seed, step, st.Live, g.Cached(), st.Peak, live, cached, peak, capacity)
			}
		}
		if n, bytes := reclaimMarks(tr.Events(), "m"); int64(n) != reclaims || bytes != reclaimed {
			t.Fatalf("seed %d: %d reclaim marks of %d bytes, model %d of %d", seed, n, bytes, reclaims, reclaimed)
		}
		if reclaims == 0 {
			t.Fatalf("seed %d: no charge reclaimed cached bytes", seed)
		}
	}
	// The replay covers a whole schedule with reclaims in it; ResetPeak is
	// not a ledger event, so check a schedule without rebases.
	tr := obs.NewTrace()
	g := NewGPU("r", 1000, WithRecorder(obs.NewRecorder(tr, nil)))
	rng := rand.New(rand.NewSource(99))
	var held []*Allocation
	for step := 0; step < 500; step++ {
		switch rng.Intn(3) {
		case 0:
			if a, err := g.Alloc("x", int64(rng.Intn(400))); err == nil {
				held = append(held, a)
			}
		case 1:
			if len(held) > 0 {
				j := rng.Intn(len(held))
				held[j].Free()
				held = append(held[:j], held[j+1:]...)
			}
		default:
			g.Cache(int64(rng.Intn(int(1000-g.Live()-g.Cached()) + 1)))
		}
	}
	if n, _ := reclaimMarks(tr.Events(), "r"); n == 0 {
		t.Fatal("replay schedule reclaimed nothing")
	}
	if tl := obs.Reconstruct(tr.Events(), "r"); tl.Peak != g.Stats().Peak || tl.Final != g.Live() {
		t.Fatalf("timeline peak %d final %d, ledger peak %d live %d", tl.Peak, tl.Final, g.Stats().Peak, g.Live())
	}
}
