package serve

import (
	"time"

	"buffalo/internal/graph"
	"buffalo/internal/obs"
)

// batcher is the coalescing goroutine: it assembles requests into batches
// under the BatchSize/MaxWait policy, drops requests whose context died
// while coalescing, charges each sealed batch's admission reservation to
// the GPU ledger, and hands admitted batches to the executor over the
// bounded queue. Memory pressure and a full queue both shed the batch —
// the server degrades to ErrOverloaded, never to a device OOM.
//
// The MaxWait timer is armed when a batch's first request arrives and
// stopped on every dispatch; the select below is timer-driven only while a
// partial batch exists, so an idle server blocks on intake alone.
func (s *Server) batcher() {
	defer close(s.execQ)
	batch := make([]*pending, 0, s.cfg.BatchSize)
	timer := time.NewTimer(s.cfg.MaxWait)
	if !timer.Stop() {
		<-timer.C
	}
	dispatch := func() {
		s.seal(batch)
		batch = batch[:0]
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	for {
		s.gAssembling.Set(int64(len(batch)))
		if len(batch) == 0 {
			select {
			case p := <-s.reqs:
				batch = append(batch, p)
				if len(batch) >= s.cfg.BatchSize {
					dispatch()
				} else {
					timer.Reset(s.cfg.MaxWait)
				}
			case <-s.quit:
				s.drain(batch)
				return
			}
			continue
		}
		select {
		case p := <-s.reqs:
			batch = append(batch, p)
			if len(batch) >= s.cfg.BatchSize {
				dispatch()
			}
		case <-timer.C:
			// MaxWait expired: the partial batch goes as-is. Latency wins
			// over batching efficiency once the first request has waited
			// its budget.
			s.seal(batch)
			batch = batch[:0]
		case <-s.quit:
			s.drain(batch)
			return
		}
	}
}

// drain empties the intake channel after Close: every request accepted
// before shutdown is still served, in batches of up to BatchSize.
func (s *Server) drain(batch []*pending) {
	for {
		select {
		case p := <-s.reqs:
			batch = append(batch, p)
			if len(batch) >= s.cfg.BatchSize {
				s.seal(batch)
				batch = batch[:0]
			}
		default:
			s.seal(batch)
			return
		}
	}
}

// seal finalizes one batch: drop dead requests, charge the admission
// reservation, and enqueue for execution — or shed the whole batch when
// the ledger or the executor queue has no room.
func (s *Server) seal(batch []*pending) {
	live := batch[:0:len(batch)]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			s.canceled.Add(1)
			s.mCanceled.Add(1)
			p.resp <- response{err: err}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	reserve := int64(len(live)) * s.reservePerReq
	ref, ok := s.admit(reserve)
	if !ok {
		s.shedBatch(live, reserve, s.mShedAdmission)
		return
	}
	sb := &sealed{reqs: append([]*pending(nil), live...), reserve: ref}
	select {
	case s.execQ <- sb:
		s.mBatches.Add(1)
		s.rec.Span(obs.KindDispatch, "serve", "batch", 0, reserve, int64(len(live)))
	default:
		// Executor queue full: QueueLimit batches are already waiting, so
		// this one's latency is lost either way — shed it and release its
		// reservation.
		ref.release()
		s.shedBatch(live, reserve, s.mShedQueue)
	}
}

// admit charges a sealed batch's predicted bytes to the ledger. It refuses
// when the reservation would eat into the margin held back for the
// executing batch's transient activations — admission is the gate that
// keeps the executor's K-search feasible, so a reservation must never be
// the allocation that OOMs.
func (s *Server) admit(reserve int64) (*allocRef, bool) {
	gpu := s.sess.GPU
	headroom := gpu.Capacity() - gpu.Live()
	if reserve > headroom-s.margin {
		return nil, false
	}
	a, err := gpu.Alloc("serve/admission", reserve)
	if err != nil {
		// The executor allocated concurrently with the headroom check;
		// treat the lost race as a shed, same as a failed precheck.
		return nil, false
	}
	return &allocRef{alloc: a}, true
}

// shedBatch answers every request in a refused batch with ErrOverloaded and
// counts them against the gate that refused it.
func (s *Server) shedBatch(batch []*pending, reserve int64, gate *obs.Counter) {
	s.shed.Add(int64(len(batch)))
	s.mShed.Add(int64(len(batch)))
	gate.Add(int64(len(batch)))
	s.rec.Event(obs.KindMark, "serve", "shed", reserve, 0, int64(len(batch)))
	for _, p := range batch {
		p.resp <- response{err: ErrOverloaded}
	}
}

// executor is the consuming goroutine: it owns the InferenceSession, frees
// each batch's admission reservation as execution begins (the real feature
// and activation allocations replace it, and the K-search plans against
// the honest remaining headroom, which still carries every queued batch's
// reservation), runs the coalesced batch, and fans results back out.
func (s *Server) executor() {
	defer close(s.done)
	for sb := range s.execQ {
		tExec := time.Now()
		sb.reserve.release()
		live := sb.reqs[:0:len(sb.reqs)]
		for _, p := range sb.reqs {
			if err := p.ctx.Err(); err != nil {
				s.canceled.Add(1)
				s.mCanceled.Add(1)
				p.resp <- response{err: err}
				continue
			}
			live = append(live, p)
		}
		if len(live) == 0 {
			continue
		}
		nodes := make([]graph.NodeID, len(live))
		for i, p := range live {
			nodes[i] = p.node
		}
		res, err := s.sess.Infer(nodes)
		if err != nil {
			s.execErrors.Add(1)
			for _, p := range live {
				p.resp <- response{err: err}
			}
			continue
		}
		s.batches.Add(1)
		s.hAssembly.Observe(int64(res.Breakdown.Assembly()))
		s.hH2D.Observe(int64(res.Breakdown.H2D))
		s.hCompute.Observe(int64(res.Breakdown.Compute))
		for _, p := range live {
			wait := tExec.Sub(p.enq)
			lat := time.Since(p.enq)
			s.responses.Add(1)
			s.mResponses.Add(1)
			s.hQueueWait.Observe(int64(wait))
			s.hLatency.Observe(int64(lat))
			s.rec.Span(obs.KindDispatch, "serve", "queue-wait", wait, 0, int64(len(live)))
			p.resp <- response{
				class:     res.Classes[p.node],
				queueWait: wait,
				batchSize: len(live),
			}
		}
	}
}
