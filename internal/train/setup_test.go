package train

import (
	"errors"
	"testing"

	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/memest"
	"buffalo/internal/obs"
)

// TestSessionKindsReleaseEveryReservation builds each of the six session
// kinds over cora and holds the engine's one set-up and teardown path to its
// ledger contract. After one iteration (or request) and Close, every device
// holds no live and no cached bytes, and a second Close changes nothing (a
// double free would panic). After Close every entry point the kind has
// (RunIteration, RunIterationOn, Evaluate, Infer) returns ErrClosed and
// leaves every device's counters as they were. Built at a budget where one reservation does not
// fit — the fixed footprint itself, a feature cache after the fixed
// footprints, or ZeRO-1's shard buffers after the parameter values —
// construction returns an OOM error at that reservation and every device it
// charged is back at zero, which the trace's alloc and free events show.
func TestSessionKindsReleaseEveryReservation(t *testing.T) {
	ds := loadData(t, "cora")
	base := goldenConfig(ds, goldenModels[0])
	base.MemBudget *= 4
	m, err := gnn.New(base.Model)
	if err != nil {
		t.Fatal(err)
	}
	vals, fixed := m.Params.ValueBytes(), memest.TrainFixedBytes(m.Params.Bytes())
	nodes := goldenNodes(ds)

	// run is one built session: its devices, its entry points (the first is
	// the iteration or request run before Close), and its Close.
	type run struct {
		gpus  []*device.GPU
		calls []func() error
		close func()
	}
	session := func(s *Session, err error) (run, error) {
		if err != nil {
			return run{}, err
		}
		b, err := s.SampleBatch()
		if err != nil {
			s.Close()
			return run{}, err
		}
		return run{[]*device.GPU{s.GPU}, []func() error{
			func() error { _, err := s.RunIteration(); return err },
			func() error { _, err := s.RunIterationOn(b); return err },
			func() error { _, _, err := s.Evaluate(nodes); return err },
		}, s.Close}, nil
	}
	dataParallel := func(dp *DataParallel, err error) (run, error) {
		if err != nil {
			return run{}, err
		}
		gpus := []*device.GPU{dp.Cluster.GPU(0), dp.Cluster.GPU(1)}
		return run{gpus, []func() error{func() error { _, err := dp.RunIteration(); return err }}, dp.Close}, nil
	}
	kinds := []struct {
		name  string
		build func(cfg Config, cache int64) (run, error)
		// Construction fails at failTag with a failBudget device and a
		// failCache cache; wantFreed when a charge precedes the failing one.
		failBudget, failCache int64
		failTag               string
		wantFreed             bool
	}{
		{"seq", func(cfg Config, _ int64) (run, error) {
			return session(NewSession(ds, cfg))
		}, fixed - 1, 0, "model+optimizer", false},
		{"pipelined+cache", func(cfg Config, cache int64) (run, error) {
			return session(NewPipelinedSession(ds, cfg, PipelineConfig{CacheBudget: cache}))
		}, base.MemBudget, 2 * base.MemBudget, "feature-cache", true},
		{"dp2", func(cfg Config, _ int64) (run, error) {
			return dataParallel(NewDataParallel(ds, cfg, 2))
		}, fixed - 1, 0, "model+optimizer", false},
		{"dp2-zero1", func(cfg Config, _ int64) (run, error) {
			cfg.ZeRO1 = true
			return dataParallel(NewDataParallel(ds, cfg, 2))
		}, vals + 1, 0, "zero1/grads+optstate", true},
		{"dp2-pipelined+cache", func(cfg Config, cache int64) (run, error) {
			return dataParallel(NewDataParallelPipelined(ds, cfg, 2, PipelineConfig{CacheBudget: cache}))
		}, base.MemBudget, 2 * base.MemBudget, "feature-cache", true},
		{"infer+cache", func(cfg Config, cache int64) (run, error) {
			s, err := NewInferenceSession(ds, cfg, cache)
			if err != nil {
				return run{}, err
			}
			return run{[]*device.GPU{s.GPU}, []func() error{func() error { _, err := s.Infer(nodes); return err }}, s.Close}, nil
		}, base.MemBudget, 2 * base.MemBudget, "serve/feature-cache", true},
	}
	empty := func(t *testing.T, when string, gpus []*device.GPU) {
		t.Helper()
		for _, g := range gpus {
			if live, cached := g.Live(), g.Cached(); live != 0 || cached != 0 {
				t.Errorf("%s: device %s live %d cached %d, want 0 and 0", when, g.Name(), live, cached)
			}
		}
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			r, err := k.build(base, base.MemBudget/8)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.calls[0](); err != nil {
				r.close()
				t.Fatal(err)
			}
			r.close()
			empty(t, "after Close", r.gpus)
			r.close()
			empty(t, "after a second Close", r.gpus)
			for i, call := range r.calls {
				before := make([]device.Stats, len(r.gpus))
				for j, g := range r.gpus {
					before[j] = g.Stats()
				}
				if err := call(); !errors.Is(err, ErrClosed) {
					t.Errorf("entry point %d after Close: err %v, want ErrClosed", i, err)
				}
				for j, g := range r.gpus {
					if st := g.Stats(); st != before[j] {
						t.Errorf("entry point %d after Close moved %s's counters: %+v, was %+v", i, g.Name(), st, before[j])
					}
				}
			}

			cfg := base
			cfg.MemBudget = k.failBudget
			tr := obs.NewTrace()
			cfg.Obs = obs.NewRecorder(tr, nil)
			if _, err := k.build(cfg, k.failCache); !device.IsOOM(err) {
				t.Fatalf("construction at budget %d, cache %d: err %v, want an OOM", k.failBudget, k.failCache, err)
			}
			live := map[string]int64{}
			oomTag, freed := "", false
			for _, ev := range tr.Events() {
				switch ev.Kind {
				case obs.KindAlloc:
					live[ev.Dev] += ev.Bytes
				case obs.KindFree:
					live[ev.Dev] -= ev.Bytes
					freed = true
				case obs.KindOOM:
					oomTag = ev.Name
				}
			}
			if oomTag != k.failTag {
				t.Errorf("construction ran out at %q, want %q", oomTag, k.failTag)
			}
			if freed != k.wantFreed {
				t.Errorf("construction freed a charge: %v, want %v", freed, k.wantFreed)
			}
			for dev, n := range live {
				if n != 0 {
					t.Errorf("failed construction left %d bytes live on %s", n, dev)
				}
			}
		})
	}
}
