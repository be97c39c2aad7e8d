package memest

import "buffalo/internal/obs"

// RecordEstimate reports one predicted-vs-actual peak-memory pair to the
// recorder: a KindEstimate trace event (Bytes = predicted, Aux = actual) and
// an "estimate/error_bp" histogram observation of the relative error
// |predicted - actual| / actual in basis points (hundredths of a percent; a
// whole-percent integer would floor a 0.49% error to 0) — the §V-D accuracy
// metric (the paper reports <10% average error). A nil recorder, or a
// non-positive predicted or actual value (systems without an estimator
// report 0), records nothing.
func RecordEstimate(r *obs.Recorder, dev string, predicted, actual int64) {
	if !r.Enabled() || predicted <= 0 || actual <= 0 {
		return
	}
	r.Event(obs.KindEstimate, dev, "peak", predicted, 0, actual)
	diff := predicted - actual
	if diff < 0 {
		diff = -diff
	}
	bp := diff * 10000 / actual
	r.Metrics().Histogram("estimate/error_bp", obs.BasisPointBuckets).Observe(bp)
}
