package memest

import (
	"testing"

	"buffalo/internal/obs"
	"buffalo/internal/obs/report"
)

// TestRecordEstimateBasisPoints pins the estimator error's resolution on the
// peaks of a cora K=1 iteration, which differ by 0.49%: a whole-percent record
// floors that to 0, and the manifest's estimator section read 0.00.
func TestRecordEstimateBasisPoints(t *testing.T) {
	reg := obs.NewMetrics()
	RecordEstimate(obs.NewRecorder(nil, reg), "gpu", 19_549_135, 19_646_064)
	h := reg.Histogram("estimate/error_bp", obs.BasisPointBuckets)
	if h.Count() != 1 || h.Sum() != 49 {
		t.Fatalf("estimate/error_bp: n=%d sum=%d, want one observation of 49", h.Count(), h.Sum())
	}
	e := report.EstimatorFromMetrics(reg)
	if e == nil || e.MeanPct != 0.49 {
		t.Fatalf("manifest estimator section %+v, want mean 0.49%%", e)
	}
	if len(e.Buckets) != 1 || e.Buckets[0].LE != 1 {
		t.Fatalf("manifest buckets %+v, want the one under 1%%", e.Buckets)
	}
}
