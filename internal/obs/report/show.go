package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WriteSummary renders the manifest's headline facts as text — the
// buffalo-report show view. Write errors propagate via the sticky printer:
// rendering stops at the first failure and returns it.
func WriteSummary(w io.Writer, m *Manifest) error {
	p := &printer{w: w}
	p.printf("run manifest (schema %d) tool=%s", m.Schema, orDash(m.Tool))
	if m.CreatedAt != "" {
		p.printf(" created=%s", m.CreatedAt)
	}
	if m.Git != "" {
		p.printf(" git=%s", m.Git)
	}
	p.printf("\n")

	c := m.Config
	if c.System != "" || c.Dataset != "" {
		p.printf("config: system=%s dataset=%s arch=%s/%s layers=%d hidden=%d batch=%d budget=%s gpus=%d seed=%d\n",
			orDash(c.System), orDash(c.Dataset), orDash(c.Arch), orDash(c.Aggregator),
			c.Layers, c.Hidden, c.BatchSize, byteCount(c.MemBudgetBytes), c.GPUs, c.Seed)
		if c.Pipelined {
			p.printf("config: pipelined depth=%d cache-budget=%s plan-ahead=%d\n",
				c.PrefetchDepth, byteCount(c.CacheBudgetBytes), c.PlanAhead)
		}
		if c.CommOverlap {
			p.printf("config: comm-overlap bucket=%s\n", byteCount(c.BucketBytes))
		}
	}

	r := m.Run
	if r.Iterations > 0 {
		p.printf("run: %d iterations, loss %.4f -> %.4f, K=%d, peak=%s predicted=%s, critical-path=%v, ooms=%d\n",
			r.Iterations, r.LossFirst, r.LossLast, r.K,
			byteCount(r.PeakBytes), byteCount(r.PredictedPeakBytes),
			time.Duration(r.CriticalPathNs), r.OOMs)
	}

	if len(m.PhasesNs) > 0 {
		var total int64
		for _, ns := range m.PhasesNs {
			total += ns
		}
		names := make([]string, 0, len(m.PhasesNs))
		for name := range m.PhasesNs {
			names = append(names, name)
		}
		sort.Strings(names)
		p.printf("phases (total %v):\n", time.Duration(total))
		for _, name := range names {
			ns := m.PhasesNs[name]
			if ns == 0 {
				continue
			}
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(ns) / float64(total)
			}
			p.printf("  %-18s %12v  %5.1f%%\n", name, time.Duration(ns), pct)
		}
	}

	o := m.Overlap
	if o.HiddenTransferNs+o.ExposedPlanningNs+o.ExposedCommNs+o.HiddenCommNs > 0 {
		p.printf("overlap: hidden-transfer=%v exposed-planning=%v exposed-comm=%v hidden-comm=%v\n",
			time.Duration(o.HiddenTransferNs), time.Duration(o.ExposedPlanningNs),
			time.Duration(o.ExposedCommNs), time.Duration(o.HiddenCommNs))
	}

	if e := m.Estimator; e != nil && e.Count > 0 {
		p.printf("estimator error: n=%d mean=%.2f%% p50=%.2f%% p90=%.2f%% p99=%.2f%%\n",
			e.Count, e.MeanPct, e.P50, e.P90, e.P99)
	}

	for _, d := range m.Devices {
		p.printf("device %s: peak=%s/%s final-live=%s transferred=%s transfer=%v compute=%v stall=%v ooms=%d\n",
			d.Name, byteCount(d.PeakBytes), byteCount(d.CapacityBytes), byteCount(d.FinalLiveBytes),
			byteCount(d.TransferredBytes), time.Duration(d.TransferNs), time.Duration(d.ComputeNs),
			time.Duration(d.StallNs), d.OOMs)
		for _, a := range d.PeakSet {
			p.printf("  at peak: %-28s %s\n", a.Tag, byteCount(a.Bytes))
		}
	}

	if c := m.Cache; c != nil {
		p.printf("cache: %.1f%% hit rate (%d hits / %d misses), %d entries, %s used, %d evictions\n",
			100*c.HitRate, c.Hits, c.Misses, c.Entries, byteCount(c.UsedBytes), c.Evictions)
	}
	if po := m.Pooling; po != nil {
		p.printf("pooling: %.1f%% hit rate (%d hits / %d misses), %d resizes, %d outstanding, %s retained\n",
			100*po.HitRate, po.Hits, po.Misses, po.Resizes, po.Outstanding, byteCount(po.RetainedBytes))
	}
	if sh := m.Sharding; sh != nil {
		p.printf("sharding: zero-1 over %d replicas, %d buckets, params=%s grad-shard=%s optim-shard=%s dropped=%s padding=%s\n",
			sh.Replicas, sh.Buckets, byteCount(sh.ParamBytes),
			byteCount(sh.GradShardBytes), byteCount(sh.OptimShardBytes),
			byteCount(sh.DroppedBytes), byteCount(sh.PaddingBytes))
		p.printf("sharding: reduce-scatter %v over %d launches, all-gather %v over %d launches\n",
			time.Duration(sh.ReduceScatterNs), sh.ReduceScatterCount,
			time.Duration(sh.AllGatherNs), sh.AllGatherCount)
	}

	if len(m.Metrics) > 0 {
		p.printf("metrics: %d instruments recorded (see the manifest JSON for the full snapshot)\n", len(m.Metrics))
	}
	return p.err
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

// printer remembers the first write error and drops everything after it.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// byteCount renders a byte total with a binary-unit suffix.
func byteCount(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
