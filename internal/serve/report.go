package serve

import (
	"buffalo/internal/obs"
	"buffalo/internal/obs/report"
)

// BuildManifest assembles a serving run's manifest: the resolved config and
// batching policy, the serving section (SLO quantiles, shed/batch counters),
// the device's ledger summary (with the reconstructed peak set when a
// complete trace exists), cache state, and the metrics snapshot with the
// estimator's inference-regime error distribution. Diff-compatible
// with training manifests — shared keys align, serving keys extend.
func (s *Server) BuildManifest(dataset string) *report.Manifest {
	m := report.New("buffalo-serve")
	cfg := s.sess.Cfg
	m.Config = report.Config{
		System:         "serve",
		Dataset:        dataset,
		Arch:           string(cfg.Model.Arch),
		Aggregator:     string(cfg.Model.Aggregator),
		Layers:         cfg.Model.Layers,
		Hidden:         cfg.Model.Hidden,
		Fanouts:        cfg.Fanouts,
		BatchSize:      s.cfg.BatchSize,
		MemBudgetBytes: cfg.MemBudget,
		Seed:           cfg.Seed,
	}
	m.Config.CacheBudgetBytes = s.sess.CacheBudget()
	st := s.Stats()
	m.Serving = &report.Serving{
		Requests:       st.Requests,
		Responses:      st.Responses,
		Shed:           st.Shed,
		Canceled:       st.Canceled,
		Batches:        st.Batches,
		ExecErrors:     st.ExecErrors,
		BatchSize:      s.cfg.BatchSize,
		MaxWaitNs:      int64(s.cfg.MaxWait),
		AvgBatchSize:   st.AvgBatchSize,
		ThroughputRPS:  st.ThroughputRPS,
		LatencyP50Ns:   int64(st.LatencyP50),
		LatencyP90Ns:   int64(st.LatencyP90),
		LatencyP99Ns:   int64(st.LatencyP99),
		QueueWaitP50Ns: int64(st.QueueWaitP50),
		QueueWaitP99Ns: int64(st.QueueWaitP99),
	}
	if pst := s.sess.PoolStats(); pst.Hits+pst.Misses > 0 {
		m.Pooling = &report.Pooling{
			Hits: pst.Hits, Misses: pst.Misses, Resizes: pst.Resizes,
			Outstanding: pst.Outstanding, RetainedBytes: pst.RetainedBytes,
			HitRate: float64(pst.Hits) / float64(pst.Hits+pst.Misses),
		}
	}
	if c := st.Cache; c.Hits+c.Misses > 0 {
		m.Cache = &report.Cache{
			Entries: c.Entries, UsedBytes: c.UsedBytes,
			Hits: c.Hits, Misses: c.Misses, Evictions: c.Evictions,
			HitRate: c.HitRate(),
		}
	}
	dst := s.sess.GPU.Stats()
	d := report.Device{
		Name:             dst.Name,
		CapacityBytes:    dst.Capacity,
		PeakBytes:        dst.Peak,
		FinalLiveBytes:   dst.Live,
		TransferredBytes: dst.Transferred,
		TransferNs:       int64(dst.TransferTime),
		ComputeNs:        int64(dst.ComputeTime),
		StallNs:          int64(dst.StallTime),
	}
	if tr := s.rec.Trace(); tr != nil && tr.Dropped() == 0 {
		tl := obs.Reconstruct(tr.Events(), dst.Name)
		d.OOMs = tl.OOMs
		for _, a := range tl.PeakSet {
			d.PeakSet = append(d.PeakSet, report.TagBytes{Tag: a.Tag, Bytes: a.Bytes})
		}
	}
	m.Devices = append(m.Devices, d)
	if reg := s.rec.Metrics(); reg != nil {
		m.Metrics = reg.Snapshot()
		m.Estimator = report.EstimatorFromMetrics(reg)
	}
	return m
}
