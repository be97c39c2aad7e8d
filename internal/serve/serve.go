// Package serve is the online inference layer over the Buffalo engine: a
// channel-based micro-batching front-end that coalesces concurrent
// per-node inference requests into batches under a BatchSize/MaxWait
// policy, an admission controller that charges pending batches against the
// GPU ledger (shedding load instead of OOMing, the serving mirror of the
// pipeline's headroom gate), and SLO instrumentation — p50/p90/p99 latency
// and throughput via internal/obs histograms, surfaced in the run manifest's
// serving section.
//
// Execution is the forward-only train.InferenceSession: every coalesced
// batch rides the sample → ForwardOnly K-search → block-gen → execute
// spine, so a batch too large for the moment's headroom splits into
// micro-batches instead of failing. One executor goroutine owns the
// session; the batcher goroutine owns coalescing and admission. Requests
// flow intake channel → batcher → bounded executor queue, with shedding at
// three gates, each counted apart (serve/shed/{intake,admission,queue}, whose
// sum is serve/shed): a full intake channel (per-request backlog), the ledger
// reservation at batch-seal time (memory backlog; a reservation that loses a
// race with the executor's allocations counts here too), and a full executor
// queue.
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"buffalo/internal/device"
	"buffalo/internal/graph"
	"buffalo/internal/obs"
	"buffalo/internal/pipeline"
	"buffalo/internal/train"
)

// Shed and shutdown sentinels. ErrOverloaded is retryable backpressure;
// ErrClosed is terminal.
var (
	ErrOverloaded = errors.New("serve: overloaded, request shed")
	ErrClosed     = errors.New("serve: server closed")
)

// Config tunes the micro-batching and admission policy.
type Config struct {
	// BatchSize is the most requests one batch coalesces; a full batch
	// dispatches immediately. 0 defaults to 32.
	BatchSize int
	// MaxWait bounds how long the first request of a batch waits for
	// company before a partial batch dispatches. 0 defaults to 2ms.
	MaxWait time.Duration
	// QueueLimit bounds the sealed batches waiting for the executor; a full
	// queue sheds the next sealed batch. 0 defaults to 2.
	QueueLimit int
	// ReservePerRequest is the admission charge per queued request, in
	// bytes. 0 calibrates it from a warm-up inference at construction: the
	// ForwardOnly estimator's per-request activation footprint plus 25%.
	ReservePerRequest int64
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 2
	}
	return c
}

// Prediction is one answered request.
type Prediction struct {
	// Class is the logits argmax for the requested node.
	Class int32
	// QueueWait is how long the request sat between arrival and its batch
	// starting execution (coalescing window + executor queue).
	QueueWait time.Duration
	// BatchSize is how many requests shared the batch.
	BatchSize int
}

type response struct {
	class     int32
	err       error
	queueWait time.Duration
	batchSize int
}

// pending is one in-flight request between Infer and the executor.
type pending struct {
	node graph.NodeID
	ctx  context.Context
	enq  time.Time
	resp chan response // buffered(1); exactly one send ever
}

// sealed is one admitted batch waiting for the executor, carrying its
// admission reservation on the ledger.
type sealed struct {
	reqs    []*pending
	reserve *allocRef
}

// allocRef wraps the admission reservation so shed paths and the executor
// free it exactly once.
type allocRef struct {
	alloc *device.Allocation
	once  sync.Once
}

func (a *allocRef) release() {
	if a != nil {
		a.once.Do(a.alloc.Free)
	}
}

// Server coalesces concurrent Infer calls into batches over one
// InferenceSession. Construct with NewServer, stop with Close.
type Server struct {
	cfg  Config
	sess *train.InferenceSession
	rec  *obs.Recorder

	reqs  chan *pending
	execQ chan *sealed
	quit  chan struct{} // closed by Close; stops intake, batcher drains
	done  chan struct{} // closed when the executor has drained everything
	stop  sync.Once

	reservePerReq int64 // admission charge per queued request
	margin        int64 // headroom held back for the executing batch

	started time.Time

	// Lifecycle counters (atomics, so Stats works without a metrics
	// registry); the registry instruments below mirror them when attached.
	requests, responses, shed, canceled, batches, execErrors atomic.Int64

	mRequests, mResponses, mShed, mCanceled, mBatches *obs.Counter
	// Shed requests by gate; mShed is their sum.
	mShedIntake, mShedAdmission, mShedQueue         *obs.Counter
	hLatency, hQueueWait, hAssembly, hH2D, hCompute *obs.Histogram
	// gAssembling is the number of requests in the batch the batcher is
	// coalescing ("serve/queue/assembling").
	gAssembling *obs.Gauge
}

// NewServer wires a server over the session and starts its batcher and
// executor goroutines. When cfg.ReservePerRequest is zero, a warm-up batch
// of BatchSize requests calibrates the admission charge (and warms the
// session's caches); its traffic is not counted in the server's stats.
func NewServer(sess *train.InferenceSession, cfg Config) (*Server, error) {
	s, err := newServer(sess, cfg)
	if err != nil {
		return nil, err
	}
	go s.batcher()
	go s.executor()
	return s, nil
}

// newServer is NewServer without the goroutines.
func newServer(sess *train.InferenceSession, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		sess: sess,
		rec:  sess.Cfg.Obs,
		// The intake buffer is one assembling batch plus one of slack:
		// deeper per-request buffering only hides queue-wait the SLO
		// histograms should see.
		reqs:  make(chan *pending, 2*cfg.BatchSize),
		execQ: make(chan *sealed, cfg.QueueLimit),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if reg := s.rec.Metrics(); reg != nil {
		s.mRequests = reg.Counter("serve/requests")
		s.mResponses = reg.Counter("serve/responses")
		s.mShed = reg.Counter("serve/shed")
		s.mShedIntake = reg.Counter("serve/shed/intake")
		s.mShedAdmission = reg.Counter("serve/shed/admission")
		s.mShedQueue = reg.Counter("serve/shed/queue")
		s.mCanceled = reg.Counter("serve/canceled")
		s.mBatches = reg.Counter("serve/batches")
		s.hLatency = reg.Histogram("serve/latency_ns", obs.LatencyBuckets)
		s.hQueueWait = reg.Histogram("serve/queue_wait_ns", obs.LatencyBuckets)
		s.hAssembly = reg.Histogram("serve/assembly_ns", obs.LatencyBuckets)
		s.hH2D = reg.Histogram("serve/h2d_ns", obs.LatencyBuckets)
		s.hCompute = reg.Histogram("serve/compute_ns", obs.LatencyBuckets)
		s.gAssembling = reg.Gauge("serve/queue/assembling")
	}
	s.reservePerReq = cfg.ReservePerRequest
	if s.reservePerReq <= 0 {
		if err := s.calibrate(); err != nil {
			return nil, err
		}
	}
	s.margin = s.reservePerReq * int64(cfg.BatchSize)
	s.started = time.Now()
	return s, nil
}

// calibrate runs one warm-up batch of BatchSize distinct nodes and sets the
// per-request admission charge to the ForwardOnly estimator's per-request
// activation footprint plus 25% slack (transients and estimator error ride
// on top of the estimate).
func (s *Server) calibrate() error {
	n := s.cfg.BatchSize
	if max := s.sess.Data.Graph.NumNodes(); n > max {
		n = max
	}
	nodes := make([]graph.NodeID, n)
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	resident := s.sess.GPU.Live()
	res, err := s.sess.Infer(nodes)
	if err != nil {
		return err
	}
	perReq := (res.PredictedPeak - resident) / int64(n)
	if perReq < 1 {
		perReq = 1
	}
	s.reservePerReq = perReq * 5 / 4
	return nil
}

// Infer submits one node's inference request and blocks for its prediction.
// Backpressure surfaces as ErrOverloaded (full intake queue, or the
// admission controller shed the request's batch); a canceled ctx returns
// its error. Requests racing Close may get ErrClosed.
func (s *Server) Infer(ctx context.Context, node graph.NodeID) (Prediction, error) {
	select {
	case <-s.quit:
		return Prediction{}, ErrClosed
	default:
	}
	p := &pending{node: node, ctx: ctx, enq: time.Now(), resp: make(chan response, 1)}
	s.requests.Add(1)
	s.mRequests.Add(1)
	select {
	case s.reqs <- p:
	case <-s.quit:
		return Prediction{}, ErrClosed
	default:
		// Intake full: the batcher is behind on whole batches; shedding at
		// the door beats queueing latency the SLO cannot recover.
		s.shed.Add(1)
		s.mShed.Add(1)
		s.mShedIntake.Add(1)
		return Prediction{}, ErrOverloaded
	}
	select {
	case r := <-p.resp:
		if r.err != nil {
			return Prediction{}, r.err
		}
		return Prediction{Class: r.class, QueueWait: r.queueWait, BatchSize: r.batchSize}, nil
	case <-ctx.Done():
		// The batcher drops canceled requests at seal time; the buffered
		// response (if one raced in) is garbage-collected with p.
		return Prediction{}, ctx.Err()
	case <-s.done:
		select {
		case r := <-p.resp:
			if r.err != nil {
				return Prediction{}, r.err
			}
			return Prediction{Class: r.class, QueueWait: r.queueWait, BatchSize: r.batchSize}, nil
		default:
			return Prediction{}, ErrClosed
		}
	}
}

// Close stops intake, flushes the assembling batch, serves every already
// accepted request, and blocks until both goroutines have exited. The
// session itself stays open (the caller owns it).
func (s *Server) Close() {
	s.stop.Do(func() { close(s.quit) })
	<-s.done
}

// Stats is the server's lifecycle summary. Latency quantiles are read from
// the obs histograms and are zero when the session has no metrics registry.
type Stats struct {
	Requests   int64
	Responses  int64
	Shed       int64
	Canceled   int64
	Batches    int64
	ExecErrors int64
	// AvgBatchSize is responses per executed batch.
	AvgBatchSize float64
	// ThroughputRPS is responses per wall second since the server started.
	ThroughputRPS float64
	LatencyP50    time.Duration
	LatencyP90    time.Duration
	LatencyP99    time.Duration
	QueueWaitP50  time.Duration
	QueueWaitP99  time.Duration
	Cache         pipeline.CacheStats
}

// Stats snapshots the server's counters and SLO quantiles.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:   s.requests.Load(),
		Responses:  s.responses.Load(),
		Shed:       s.shed.Load(),
		Canceled:   s.canceled.Load(),
		Batches:    s.batches.Load(),
		ExecErrors: s.execErrors.Load(),
		Cache:      s.sess.CacheStats(),
	}
	if st.Batches > 0 {
		st.AvgBatchSize = float64(st.Responses) / float64(st.Batches)
	}
	if el := time.Since(s.started).Seconds(); el > 0 {
		st.ThroughputRPS = float64(st.Responses) / el
	}
	if s.hLatency.Count() > 0 {
		st.LatencyP50 = time.Duration(s.hLatency.Quantile(0.50))
		st.LatencyP90 = time.Duration(s.hLatency.Quantile(0.90))
		st.LatencyP99 = time.Duration(s.hLatency.Quantile(0.99))
	}
	if s.hQueueWait.Count() > 0 {
		st.QueueWaitP50 = time.Duration(s.hQueueWait.Quantile(0.50))
		st.QueueWaitP99 = time.Duration(s.hQueueWait.Quantile(0.99))
	}
	return st
}
