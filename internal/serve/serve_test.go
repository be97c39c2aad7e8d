package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/graph"
	"buffalo/internal/obs"
	"buffalo/internal/train"
)

func testSession(t testing.TB, budget, cacheBudget int64) *train.InferenceSession {
	t.Helper()
	ds, err := datagen.Load("cora", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := train.Config{
		System: train.Buffalo,
		Model: gnn.Config{
			Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2,
			InDim: ds.FeatDim(), Hidden: 32, OutDim: ds.NumClasses, Seed: 1,
		},
		Fanouts:   []int{10, 25},
		BatchSize: 256,
		MemBudget: budget,
		Seed:      7,
		Obs:       obs.NewRecorder(nil, obs.NewMetrics()),
	}
	sess, err := train.NewInferenceSession(ds, cfg, cacheBudget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	return sess
}

// TestMaxWaitPartialFire: a single request in a wide batch window must still
// be answered once MaxWait expires — the partial batch dispatches alone.
func TestMaxWaitPartialFire(t *testing.T) {
	sess := testSession(t, 256*device.MB, 0)
	srv, err := NewServer(sess, Config{BatchSize: 32, MaxWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	t0 := time.Now()
	p, err := srv.Infer(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.BatchSize != 1 {
		t.Errorf("BatchSize = %d, want 1 (partial fire)", p.BatchSize)
	}
	if el := time.Since(t0); el < 5*time.Millisecond {
		t.Errorf("answered in %v, before the %v window expired", el, 5*time.Millisecond)
	}
}

// TestBatchSizeEarlyFire: a full batch must dispatch immediately, long before
// an (absurdly long) MaxWait.
func TestBatchSizeEarlyFire(t *testing.T) {
	sess := testSession(t, 256*device.MB, 0)
	const n = 4
	srv, err := NewServer(sess, Config{BatchSize: n, MaxWait: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	t0 := time.Now()
	var wg sync.WaitGroup
	preds := make([]Prediction, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			preds[i], errs[i] = srv.Infer(context.Background(), graph.NodeID(i))
		}(i)
	}
	wg.Wait()
	if el := time.Since(t0); el > 10*time.Second {
		t.Fatalf("full batch took %v; early fire did not trigger", el)
	}
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if preds[i].BatchSize != n {
			t.Errorf("request %d: BatchSize = %d, want %d", i, preds[i].BatchSize, n)
		}
	}
}

// TestCancelMidCoalesce: a request whose context dies while its batch is
// assembling returns the context error to the caller and is dropped at seal
// time (counted, not executed).
func TestCancelMidCoalesce(t *testing.T) {
	sess := testSession(t, 256*device.MB, 0)
	srv, err := NewServer(sess, Config{BatchSize: 32, MaxWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := srv.Infer(ctx, 5)
		errc <- err
	}()
	waitAssembling(t, srv, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	srv.Close()
	if c := srv.Stats().Canceled; c != 1 {
		t.Errorf("Canceled = %d, want 1", c)
	}
	if r := srv.Stats().Responses; r != 0 {
		t.Errorf("Responses = %d, want 0 (canceled request must not execute)", r)
	}
}

// waitAssembling blocks until the batcher holds n requests in the batch it
// is coalescing. The deadline only bounds a failing run.
func waitAssembling(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for srv.gAssembling.Value() != n {
		if time.Now().After(deadline) {
			t.Fatalf("assembling batch holds %d requests, want %d", srv.gAssembling.Value(), n)
		}
		runtime.Gosched()
	}
}

// TestShutdownDrain: requests accepted before Close — still coalescing when
// it is called — are served, not dropped.
func TestShutdownDrain(t *testing.T) {
	sess := testSession(t, 256*device.MB, 0)
	srv, err := NewServer(sess, Config{BatchSize: 32, MaxWait: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = srv.Infer(context.Background(), graph.NodeID(i))
		}(i)
	}
	waitAssembling(t, srv, n)
	srv.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d after Close: %v", i, err)
		}
	}
	if got := srv.Stats().Responses; got != n {
		t.Errorf("Responses = %d, want %d (drain must serve accepted requests)", got, n)
	}
}

// TestInferAfterCloseRefuses: new requests after Close get ErrClosed.
func TestInferAfterCloseRefuses(t *testing.T) {
	sess := testSession(t, 256*device.MB, 0)
	srv, err := NewServer(sess, Config{BatchSize: 4, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := srv.Infer(context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestOverloadShedsNotOOMs: when the ledger has no admissible headroom the
// server must shed (ErrOverloaded), never surface a device OOM or execution
// error, and recover as soon as the pressure lifts. The pressure is applied
// directly on the ledger — a foreign allocation eating the headroom — so the
// admission gate's refusal is arithmetic, not a scheduler race (this must
// hold on a single-CPU host where bursts serialize cooperatively).
func TestOverloadShedsNotOOMs(t *testing.T) {
	sess := testSession(t, 16*device.MB, 0)
	// Pinned 3MB/request reservation on a 16MB device: margin 2x3MB, so a
	// batch-of-1 seal (3MB) is refused exactly when live exceeds 7MB.
	srv, err := NewServer(sess, Config{
		BatchSize: 2, MaxWait: 100 * time.Microsecond,
		QueueLimit: 2, ReservePerRequest: 3 * device.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	pressure, err := sess.GPU.Alloc("test/pressure", 10*device.MB)
	if err != nil {
		t.Fatal(err)
	}
	var shed int
	for i := 0; i < 10; i++ {
		_, err := srv.Infer(context.Background(), graph.NodeID(i))
		switch {
		case errors.Is(err, ErrOverloaded):
			shed++
		case err != nil:
			t.Fatalf("request %d under pressure: %v (must shed, not fail)", i, err)
		}
	}
	if shed == 0 {
		t.Error("no requests shed with 10MB of the 16MB device held foreign")
	}
	pressure.Free()
	if _, err := srv.Infer(context.Background(), 42); err != nil {
		t.Fatalf("request after pressure lifted: %v (server must recover)", err)
	}
	srv.Close()
	if st := srv.Stats(); st.ExecErrors != 0 {
		t.Errorf("ExecErrors = %d, want 0 (admission must prevent execution OOMs)", st.ExecErrors)
	}
	if live, want := sess.GPU.Live(), sess.Model.Params.ValueBytes(); live != want {
		t.Errorf("ledger live = %d after Close, want fixed footprint %d (reservation leak)", live, want)
	}
}

// TestCloseReleasesGoroutines: Close must terminate the batcher and executor;
// repeated Close is safe.
func TestCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		sess := testSession(t, 256*device.MB, 0)
		srv, err := NewServer(sess, Config{BatchSize: 4, MaxWait: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Infer(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		srv.Close() // idempotent
	}
	// Close returns once the executor has closed done, so the goroutines
	// are still exiting: yield to them until the count settles.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
	}
	t.Errorf("goroutines: %d before, %d after three server lifecycles", before, runtime.NumGoroutine())
}

// TestStatsQuantiles: with a metrics registry attached, the latency SLO
// quantiles are populated and ordered.
func TestStatsQuantiles(t *testing.T) {
	sess := testSession(t, 256*device.MB, 0)
	srv, err := NewServer(sess, Config{BatchSize: 4, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 20; i++ {
		if _, err := srv.Infer(context.Background(), graph.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.LatencyP50 <= 0 {
		t.Fatal("LatencyP50 not populated")
	}
	if st.LatencyP50 > st.LatencyP90 || st.LatencyP90 > st.LatencyP99 {
		t.Errorf("quantiles not ordered: p50=%v p90=%v p99=%v",
			st.LatencyP50, st.LatencyP90, st.LatencyP99)
	}
	if st.ThroughputRPS <= 0 {
		t.Error("ThroughputRPS not populated")
	}
}

// TestShedCountersByReason: each shedding gate counts its refusals under its
// own name, and serve/shed (and Stats().Shed) stays their sum. The server
// runs without its goroutines, so the test plays batcher and executor and
// every gate fires deterministically: a full intake channel, a full executor
// queue behind a successful admission (whose reservation must be released),
// and a ledger with no admissible headroom.
func TestShedCountersByReason(t *testing.T) {
	sess := testSession(t, 16*device.MB, 0)
	s, err := newServer(sess, Config{BatchSize: 2, QueueLimit: 1, ReservePerRequest: device.MB})
	if err != nil {
		t.Fatal(err)
	}
	newPending := func() *pending {
		return &pending{ctx: context.Background(), enq: time.Now(), resp: make(chan response, 1)}
	}
	expectShed := func(gate string, batch []*pending) {
		t.Helper()
		for i, p := range batch {
			if r := <-p.resp; !errors.Is(r.err, ErrOverloaded) {
				t.Fatalf("%s: request %d answered %v, want ErrOverloaded", gate, i, r.err)
			}
		}
	}
	resident := sess.GPU.Live()

	for len(s.reqs) < cap(s.reqs) {
		s.reqs <- newPending()
	}
	if _, err := s.Infer(context.Background(), 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("intake: Infer on a full intake channel returned %v, want ErrOverloaded", err)
	}

	s.execQ <- &sealed{}
	queued := []*pending{newPending(), newPending()}
	s.seal(queued)
	expectShed("queue", queued)
	if live := sess.GPU.Live(); live != resident {
		t.Fatalf("queue: ledger live %d after the shed, want %d (admission reservation leaked)", live, resident)
	}

	pressure, err := sess.GPU.Alloc("test/pressure", sess.GPU.Capacity()-resident-2*device.MB)
	if err != nil {
		t.Fatal(err)
	}
	defer pressure.Free()
	refused := []*pending{newPending()}
	s.seal(refused)
	expectShed("admission", refused)

	reg := sess.Cfg.Obs.Metrics()
	want := map[string]int64{"serve/shed/intake": 1, "serve/shed/queue": 2, "serve/shed/admission": 1, "serve/shed": 4}
	for name, n := range want {
		if got := reg.Counter(name).Value(); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	if got := s.Stats().Shed; got != 4 {
		t.Errorf("Stats().Shed = %d, want 4", got)
	}
}
