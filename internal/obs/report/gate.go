package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Thresholds configures the regression gate. Every field treats zero as
// "this gate is off", so a default-constructed Thresholds gates nothing and
// CI can opt into exactly the comparisons that are deterministic on its
// hardware (estimator error and allocation counts are; wall-clock numbers
// are not, which is why the time gates default off in scripts/check.sh).
type Thresholds struct {
	// EstimatorErrorDriftPP fails when the estimator's mean or p99 error
	// grows by more than this many percentage points over baseline.
	EstimatorErrorDriftPP float64 `json:"estimator_error_drift_pp,omitempty"`
	// CriticalPathPct fails when the per-iteration critical path grows by
	// more than this percent over baseline. Wall-clock: off by default.
	CriticalPathPct float64 `json:"critical_path_pct,omitempty"`
	// AllocsPct fails when any benchmark present in both manifests grows
	// its allocs/op by more than this percent (growth from a zero baseline
	// always fails — any regression from "allocation-free" is infinite).
	AllocsPct float64 `json:"allocs_pct,omitempty"`
	// CacheHitRateDropPP fails when the aggregate cache hit rate drops by
	// more than this many percentage points (rates in [0,1]; the threshold
	// is in points of that rate ×100, matching how the rate is displayed).
	CacheHitRateDropPP float64 `json:"cache_hit_rate_drop_pp,omitempty"`
	// ShardingPaddingPct fails when the current manifest's sharding section
	// carries shard-alignment padding above this percent of the parameter
	// bytes. Padding is deterministic (a function of the model shape, bucket
	// size and replica count), so any growth means the bucketizer's layout
	// regressed; the gate is absolute — it fires with or without a sharding
	// section in the baseline.
	ShardingPaddingPct float64 `json:"sharding_padding_pct,omitempty"`
}

// ReadThresholds parses a thresholds JSON object. Unknown fields are
// rejected so a typo in a CI config fails loudly instead of silently
// disabling a gate.
func ReadThresholds(r io.Reader) (Thresholds, error) {
	var th Thresholds
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&th); err != nil {
		return Thresholds{}, fmt.Errorf("report: parsing thresholds: %w", err)
	}
	return th, nil
}

// ReadThresholdsFile reads thresholds from path.
func ReadThresholdsFile(path string) (Thresholds, error) {
	f, err := os.Open(path)
	if err != nil {
		return Thresholds{}, fmt.Errorf("report: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only; nothing to flush
	return ReadThresholds(f)
}

// Violation is one gated regression: the metric that moved, by how much,
// and the threshold it broke. Message is self-contained and actionable —
// it names the metric, both values, and the limit, so a CI failure log is
// enough to start debugging.
type Violation struct {
	Metric    string  `json:"metric"`
	Baseline  float64 `json:"baseline"`
	Current   float64 `json:"current"`
	Threshold float64 `json:"threshold"`
	Message   string  `json:"message"`
}

// Gate compares current against baseline under the thresholds and returns
// every violation, sorted by metric key. An empty slice means the gate
// passes; same-config manifests with identical numbers always pass.
func Gate(baseline, current *Manifest, th Thresholds) []Violation {
	var out []Violation

	if th.EstimatorErrorDriftPP > 0 && baseline.Estimator != nil && current.Estimator != nil {
		check := func(key string, base, cur float64) {
			drift := cur - base
			if drift > th.EstimatorErrorDriftPP {
				out = append(out, Violation{
					Metric: "estimator/error_pct/" + key, Baseline: base, Current: cur,
					Threshold: th.EstimatorErrorDriftPP,
					Message: fmt.Sprintf(
						"estimator %s error drifted +%.2fpp (baseline %.2f%% -> current %.2f%%), over the %.2fpp threshold: the scheduler's predicted-peak accuracy regressed — check internal/memest and the redundancy model",
						key, drift, base, cur, th.EstimatorErrorDriftPP),
				})
			}
		}
		check("mean", baseline.Estimator.MeanPct, current.Estimator.MeanPct)
		check("p99", baseline.Estimator.P99, current.Estimator.P99)
	}

	if th.CriticalPathPct > 0 && baseline.Run.Iterations > 0 && current.Run.Iterations > 0 {
		base := float64(baseline.Run.CriticalPathNs) / float64(baseline.Run.Iterations)
		cur := float64(current.Run.CriticalPathNs) / float64(current.Run.Iterations)
		if base > 0 {
			growth := 100 * (cur - base) / base
			if growth > th.CriticalPathPct {
				out = append(out, Violation{
					Metric: "run/critical_path_ns", Baseline: base, Current: cur,
					Threshold: th.CriticalPathPct,
					Message: fmt.Sprintf(
						"per-iteration critical path grew +%.1f%% (baseline %.0fns -> current %.0fns), over the %.1f%% threshold: the training loop's exposed time regressed",
						growth, base, cur, th.CriticalPathPct),
				})
			}
		}
	}

	if th.AllocsPct > 0 {
		names := make([]string, 0, len(current.Benchmarks))
		for name := range current.Benchmarks {
			if _, ok := baseline.Benchmarks[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			base, cur := baseline.Benchmarks[name].AllocsPerOp, current.Benchmarks[name].AllocsPerOp
			switch {
			case base == 0 && cur > 0:
				out = append(out, Violation{
					Metric: "bench/" + name + "/allocs_per_op", Baseline: base, Current: cur,
					Threshold: th.AllocsPct,
					Message: fmt.Sprintf(
						"benchmark %s now allocates %.0f allocs/op from an allocation-free baseline (threshold %.1f%%): a heap allocation reached a path that had none — run buffalo-vet -hotalloc-summary to find the site",
						name, cur, th.AllocsPct),
				})
			case base > 0:
				growth := 100 * (cur - base) / base
				if growth > th.AllocsPct {
					out = append(out, Violation{
						Metric: "bench/" + name + "/allocs_per_op", Baseline: base, Current: cur,
						Threshold: th.AllocsPct,
						Message: fmt.Sprintf(
							"benchmark %s allocs/op grew +%.1f%% (baseline %.0f -> current %.0f), over the %.1f%% threshold: the hot path gained allocations — run buffalo-vet -hotalloc-summary to locate the new sites",
							name, growth, base, cur, th.AllocsPct),
					})
				}
			}
		}
	}

	if th.CacheHitRateDropPP > 0 && baseline.Cache != nil && current.Cache != nil {
		drop := 100 * (baseline.Cache.HitRate - current.Cache.HitRate)
		if drop > th.CacheHitRateDropPP {
			out = append(out, Violation{
				Metric: "cache/hit_rate", Baseline: baseline.Cache.HitRate, Current: current.Cache.HitRate,
				Threshold: th.CacheHitRateDropPP,
				Message: fmt.Sprintf(
					"feature-cache hit rate dropped -%.1fpp (baseline %.1f%% -> current %.1f%%), over the %.1fpp threshold: check the degree-aware admission policy and cache budget",
					drop, 100*baseline.Cache.HitRate, 100*current.Cache.HitRate, th.CacheHitRateDropPP),
			})
		}
	}

	if th.ShardingPaddingPct > 0 && current.Sharding != nil && current.Sharding.ParamBytes > 0 {
		sh := current.Sharding
		pct := 100 * float64(sh.PaddingBytes) / float64(sh.ParamBytes)
		if pct > th.ShardingPaddingPct {
			out = append(out, Violation{
				Metric: "sharding/padding_bytes", Baseline: 0, Current: float64(sh.PaddingBytes),
				Threshold: th.ShardingPaddingPct,
				Message: fmt.Sprintf(
					"shard-alignment padding is %.2f%% of the parameter bytes (%dB over %dB), over the %.2f%% threshold: the flat buffer's bucket layout wastes space — check nn.Flatten's close/pad rule against the bucket size and replica count",
					pct, sh.PaddingBytes, sh.ParamBytes, th.ShardingPaddingPct),
			})
		}
	}

	sort.Slice(out, func(i, j int) bool { return out[i].Metric < out[j].Metric })
	return out
}

// WriteViolations renders violations one per line ("gate: <message>"); a
// pass writes a single OK line. Write errors propagate.
func WriteViolations(w io.Writer, vs []Violation) error {
	if len(vs) == 0 {
		_, err := fmt.Fprintln(w, "report gate: ok (no gated regressions)")
		return err
	}
	for _, v := range vs {
		if _, err := fmt.Fprintf(w, "report gate: FAIL %s: %s\n", v.Metric, v.Message); err != nil {
			return err
		}
	}
	return nil
}

// WriteDiff renders a Diff result as an aligned, human-readable table.
// Deltas print with signed absolute and percentage change; keys present on
// one side only are marked. Write errors propagate.
func WriteDiff(w io.Writer, deltas []Delta) error {
	if len(deltas) == 0 {
		_, err := fmt.Fprintln(w, "manifests are identical on every compared key")
		return err
	}
	keyW := len("key")
	for _, d := range deltas {
		if len(d.Key) > keyW {
			keyW = len(d.Key)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %15s  %15s  %s\n", keyW, "key", "base", "current", "change"); err != nil {
		return err
	}
	for _, d := range deltas {
		var change string
		switch {
		case !d.HasBase:
			change = "(new)"
		case !d.HasCur:
			change = "(gone)"
		default:
			change = fmt.Sprintf("%+.4g (%+.1f%%)", d.Cur-d.Base, d.PctChange())
		}
		if _, err := fmt.Fprintf(w, "%-*s  %15s  %15s  %s\n",
			keyW, d.Key, fmtNum(d.Base, d.HasBase), fmtNum(d.Cur, d.HasCur), change); err != nil {
			return err
		}
	}
	return nil
}

func fmtNum(v float64, present bool) string {
	if !present {
		return "-"
	}
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}
