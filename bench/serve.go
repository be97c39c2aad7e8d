package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"buffalo/internal/datagen"
	"buffalo/internal/graph"
	"buffalo/internal/serve"
	"buffalo/internal/train"
)

// request is one open-loop request's record. Times are offsets from the
// window's start. due is when the schedule said to send it, sent when the
// generator got to it, done when the answer came back. refused counts the
// times the server shed it before it was answered.
type request struct {
	due, sent, done time.Duration
	queueWait       time.Duration
	batch           int
	refused         int
	class           int32
	err             error
}

// A client treats ErrOverloaded as what the server says it is, retryable
// backpressure: it asks again after retryAfter, for up to retryFor past the
// due time. The request's latency still runs from the due time, so a shed
// request is a late one (it misses good_frac), not a lost one: a stall of the
// host that overflows the server's intake costs latency on that run instead
// of making operations fail on some runs and not on others.
const (
	retryAfter = time.Millisecond
	retryFor   = 5 * time.Second
)

// openLoop sends requests at a fixed rate for d, whether or not earlier ones
// have been answered: one issuing goroutine walks the schedule, and every
// request in flight is a goroutine parked in Server.Infer, not a thread. When
// the generator falls behind it sends at once and the lateness shows in
// sent - due; latency is counted from due, so a stall delays every request
// scheduled during it. A request the server sheds is sent again (see
// retryAfter). Returns after every request has been answered or given up.
func openLoop(srv *serve.Server, rate float64, d time.Duration, pick serve.Picker) []request {
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	reqs := make([]request, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		q := &reqs[i]
		q.due = time.Duration(i) * interval
		if wait := q.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		node := pick()
		q.sent = time.Since(start)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := srv.Infer(context.Background(), node)
			for errors.Is(err, serve.ErrOverloaded) {
				q.refused++
				if time.Since(start)-q.due >= retryFor {
					break
				}
				time.Sleep(retryAfter)
				p, err = srv.Infer(context.Background(), node)
			}
			q.done = time.Since(start)
			q.queueWait, q.batch, q.class, q.err = p.QueueWait, p.BatchSize, p.Class, err
		}()
	}
	wg.Wait()
	return reqs
}

// windowStats is one open-loop window's outcome: shed counts the server's
// refusals (each followed by a retry), failed the requests never answered.
type windowStats struct {
	sent, answered, shed, failed int
	good                         int    // answered within serveLimit of the due time
	latency                      series // ms from due, answered requests
	queueWait                    series
	batch                        series
	lateMax                      float64 // ms the generator ran behind, worst case
	reqs                         []request
}

func summarize(reqs []request) *windowStats {
	w := &windowStats{sent: len(reqs), reqs: reqs}
	for i := range reqs {
		q := &reqs[i]
		if late := ms(q.sent - q.due); late > w.lateMax {
			w.lateMax = late
		}
		w.shed += q.refused
		if q.err != nil {
			w.failed++
			continue
		}
		w.answered++
		w.latency.addDur(q.done - q.due)
		w.queueWait.addDur(q.queueWait)
		w.batch.add(float64(q.batch))
		if q.done-q.due <= serveLimit {
			w.good++
		}
	}
	return w
}

type serveEnv struct {
	ds   *datagen.Dataset
	sess *train.InferenceSession
	srv  *serve.Server
	pf   serve.PickerFactory
}

func (e *serveEnv) close() {
	if e == nil {
		return
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.sess != nil {
		e.sess.Close()
	}
}

func newInference(sp *spec, seed int64) (*datagen.Dataset, *train.InferenceSession, error) {
	ds, err := sp.load()
	if err != nil {
		return nil, nil, err
	}
	sess, err := train.NewInferenceSession(ds, sp.trainConfig(ds, seed), serveCacheBudget)
	return ds, sess, err
}

// offlineBatch draws one offline inference batch of serveBatch Zipf nodes.
func offlineBatch(pick serve.Picker, buf []graph.NodeID) []graph.NodeID {
	buf = buf[:0]
	for len(buf) < serveBatch {
		buf = append(buf, pick())
	}
	return buf
}

func setupServe(r *run, c *setupClock) (*serveEnv, error) {
	e := &serveEnv{}
	var err error
	c.step(func() {
		if e.ds, e.sess, err = newInference(r.sp, r.opt.seed); err != nil {
			return
		}
		e.srv, err = serve.NewServer(e.sess, serve.Config{BatchSize: serveBatch})
	})
	if err != nil {
		e.close()
		return nil, err
	}
	e.pf = serve.ZipfPicker(e.ds.NumNodes(), 1.2)
	pick := e.pf(sampleSeed(r.opt.seed))
	var buf []graph.NodeID
	for i := 0; i < r.warm() && err == nil; i++ {
		buf = offlineBatch(pick, buf)
		c.step(func() { _, err = e.sess.Infer(buf) })
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// verifyServe checks that two fresh inference sessions of one seed answer the
// same batches with the same classes, all inside [0, NumClasses), and that a
// server answers a small burst completely.
func verifyServe(r *run) error {
	ds, a, err := newInference(r.sp, r.opt.seed)
	if err != nil {
		return err
	}
	defer a.Close()
	_, b, err := newInference(r.sp, r.opt.seed)
	if err != nil {
		return err
	}
	defer b.Close()
	pick := serve.ZipfPicker(ds.NumNodes(), 1.2)(sampleSeed(r.opt.seed) + 1)
	var buf []graph.NodeID
	for i := 0; i < r.verifyCount(); i++ {
		buf = offlineBatch(pick, buf)
		ra, err := a.Infer(buf)
		if err != nil {
			return err
		}
		rb, err := b.Infer(buf)
		if err != nil {
			return err
		}
		r.check(ra.Peak <= r.sp.budget, "batch %d: peak %d over budget %d", i, ra.Peak, r.sp.budget)
		for _, v := range buf {
			ca, ok := ra.Classes[v]
			r.check(ok && ca >= 0 && int(ca) < ds.NumClasses, "batch %d: node %d has class %d outside [0,%d)", i, v, ca, ds.NumClasses)
			r.check(ca == rb.Classes[v], "batch %d: node %d: two fresh sessions answer %d and %d", i, v, ca, rb.Classes[v])
		}
	}
	srv, err := serve.NewServer(a, serve.Config{BatchSize: serveBatch})
	if err != nil {
		return err
	}
	defer srv.Close()
	w := summarize(openLoop(srv, 500, 100*time.Millisecond, pick))
	r.check(w.answered == w.sent, "burst of %d requests: %d answered, %d shed, %d failed", w.sent, w.answered, w.shed, w.failed)
	for i := range w.reqs {
		c := w.reqs[i].class
		r.check(w.reqs[i].err != nil || (c >= 0 && int(c) < ds.NumClasses), "served class %d outside [0,%d)", c, ds.NumClasses)
	}
	r.logf("verified %d batches: classes in range, two fresh sessions agree, peak <= budget; burst of %d answered\n", r.verifyCount(), w.sent)
	return nil
}

// The measured window is split between nine open-loop windows — three per
// rate, interleaved across rates so that a stall on the host lands on one
// window of one rate — and the offline calls.
const (
	windowsPerRate = 3
	openShare      = 0.08 // of the run, per window
	offlineShare   = 0.25
)

func runServe(r *run) error {
	if err := verifyServe(r); err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	env, err := setupMedian(r, func(c *setupClock) (*serveEnv, error) { return setupServe(r, c) }, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	pick := env.pf(sampleSeed(r.opt.seed) + 2)

	// Offline first, while the host is still busy from set-up: the server is
	// idle, so the session is the caller's.
	var assembly, compute series
	var buf []graph.NodeID
	st, err := r.measureOps(r.window(offlineShare), func() (opResult, error) {
		buf = offlineBatch(pick, buf)
		res, err := env.sess.Infer(buf)
		if err != nil {
			return opResult{}, err
		}
		bd := res.Breakdown
		assembly.addDur(bd.Assembly())
		compute.addDur(bd.Compute)
		return opResult{simHost: bd.Assembly() + bd.Compute, simFixed: bd.H2D,
			k: float64(res.K), predicted: res.PredictedPeak, peak: res.Peak}, nil
	})
	if err != nil {
		return err
	}

	byRate := map[float64][]*windowStats{}
	before := env.srv.Stats()
	for w := 0; w < windowsPerRate; w++ {
		for _, rate := range serveRates {
			byRate[rate] = append(byRate[rate], summarize(openLoop(env.srv, rate, r.window(openShare), pick)))
		}
	}
	after := env.srv.Stats()
	var sent, answered, shed, failed int
	for _, ws := range byRate {
		for _, w := range ws {
			sent, answered, shed, failed = sent+w.sent, answered+w.answered, shed+w.shed, failed+w.failed
		}
	}
	// The server counts every call as a request: each first send and one more
	// after each refusal.
	r.check(failed > 0 || int64(sent+shed) == after.Requests-before.Requests, "generator made %d calls, server counted %d", sent+shed, after.Requests-before.Requests)
	r.check(int64(answered) == after.Responses-before.Responses && int64(shed) == after.Shed-before.Shed,
		"generator counted answered %d shed %d, server counted %d %d", answered, shed,
		after.Responses-before.Responses, after.Shed-before.Shed)
	r.attempted += sent
	r.failed += failed

	// Per rate: the median over windows of each window's percentile.
	type rateRow struct{ p50, p99, good, answered float64 }
	rows := map[float64]rateRow{}
	var lateMax float64
	var queueWait, batch series
	r.logf("open loop, Zipf(1.2), latency from the due time, limit %v:\n", serveLimit)
	for _, rate := range serveRates {
		var p50, p99 series
		var good, ans, n int
		for _, w := range byRate[rate] {
			p50.add(w.latency.median())
			p99.add(w.latency.quantile(0.99))
			good, ans, n = good+w.good, ans+w.answered, n+w.sent
			if w.lateMax > lateMax {
				lateMax = w.lateMax
			}
			queueWait = append(queueWait, w.queueWait...)
			batch = append(batch, w.batch...)
		}
		row := rateRow{p50.median(), p99.median(), ratio(float64(good), float64(n)), ratio(float64(ans), float64(n))}
		rows[rate] = row
		r.logf("  %5.0f req/s: p50 %.3f ms  p99 %.3f ms (median of %d windows, %d requests each)  answered %.4f  within limit %.4f\n",
			rate, row.p50, row.p99, windowsPerRate, n/windowsPerRate, row.answered, row.good)
		for i, w := range byRate[rate] {
			r.logf("      window %d: p99 %.3f ms  shed %d  failed %d  generator late by at most %.3f ms\n",
				i, w.latency.quantile(0.99), w.shed, w.failed, w.lateMax)
		}
	}
	top := serveRates[len(serveRates)-1]

	if !r.opt.trace {
		r.reportOps(st, serveBatch)
		// The serving workload's good fraction is the share of top-rate
		// requests answered inside the limit. Its open-loop percentiles are
		// per-layer rows, not end-to-end metrics: a slow spell of the host
		// triples a p99 (6 ms to 17 ms measured), which no bound survives.
		r.set("good_frac", rows[top].good)
		return nil
	}

	r.setN("serve.p50_ms_r1000", rows[1000].p50, byRate[1000][0].sent)
	r.setN("serve.p99_ms_r1000", rows[1000].p99, byRate[1000][0].sent)
	r.setN("serve.p99_ms_r2000", rows[2000].p99, byRate[2000][0].sent)
	r.setN("serve.p99_ms_r3000", rows[3000].p99, byRate[3000][0].sent)
	r.set("serve.good_frac_r3000", rows[3000].good)
	r.set("serve.queue_wait_ms_p50", queueWait.median())
	r.set("serve.queue_wait_ms_p99", queueWait.quantile(0.99))
	r.set("serve.batch_size_mean", batch.mean())
	r.set("serve.shed_frac", ratio(float64(shed), float64(sent)))
	r.set("serve.gen_late_ms_max", lateMax)
	for _, rate := range serveRates {
		if rows[rate].p99 <= ms(serveLimit) && rows[rate].answered >= 0.99 {
			r.set("serve.max_rate_ok", rate)
		}
	}
	r.set("serve.assembly_ms_p50", assembly.median())
	r.set("serve.compute_ms_p50", compute.median())
	r.hostOpRows(st, len(st.raw))
	r.set("gnn.fwd_ms_per_iter", compute.median()*gpuSpeedup) // host time: the simulated kernel clock is host time / gpuSpeedup
	r.set("memest.err_pct_p50", st.errPct.median())
	r.set("memest.err_pct_p90", st.errPct.quantile(0.9))
	r.set("schedule.k_mean", st.k.mean())
	r.set("device.peak_frac", ratio(float64(st.peak), float64(r.sp.budget)))
	cs := env.sess.CacheStats()
	r.set("pipeline.cache_hit_frac", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)))
	ps := env.sess.PoolStats()
	r.set("tensor.pool_hit_frac", ratio(float64(ps.Hits), float64(ps.Hits+ps.Misses)))
	if err := r.standaloneRows(nil, 0, 0); err != nil {
		return err
	}

	// Spans for one request in eight: due -> answered, with the time the
	// generator ran late and the server's queue wait as children.
	tr := newTracer(r.sp.name)
	var offset time.Duration
	id := 0
	for w := 0; w < windowsPerRate; w++ {
		for _, rate := range serveRates {
			ws := byRate[rate][w]
			var end time.Duration
			for i := range ws.reqs {
				q := &ws.reqs[i]
				if q.done > end {
					end = q.done
				}
				if i%8 != 0 {
					continue
				}
				id++
				p := tr.add(fmt.Sprintf("serve.request_r%.0f", rate), offset+q.due, offset+q.done, -1, id)
				tr.add("serve.generator_late", offset+q.due, offset+q.sent, p, id)
				if q.err == nil {
					tr.add("serve.queue_wait", offset+q.sent, offset+q.sent+q.queueWait, p, id)
				}
			}
			offset += end
		}
	}
	return r.writeTrace(tr)
}
