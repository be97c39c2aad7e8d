package main

import (
	"sort"
	"time"
)

// series is a set of timing or count samples. Quantiles interpolate linearly
// between order statistics, like Python's statistics.quantiles "inclusive"
// method, so a p90 over 100 samples has ten samples beyond it.
type series []float64

func (s *series) add(v float64)             { *s = append(*s, v) }
func (s *series) addDur(d time.Duration)    { *s = append(*s, ms(d)) }
func ms(d time.Duration) float64            { return float64(d) / float64(time.Millisecond) }
func (s series) median() float64            { return s.quantile(0.5) }
func (s series) sorted() series             { c := append(series(nil), s...); sort.Float64s(c); return c }
func (s series) quantile(q float64) float64 { return s.sorted().quantileSorted(q) }

func (s series) quantileSorted(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func (s series) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

func (s series) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func (s series) max() float64 {
	var m float64
	for i, v := range s {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// ratio is a/b, or 0 when b is 0 (a per-layer row on a workload where the
// layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// The calibration kernel is a fixed pure-Go float32 product of two 96x96
// matrices, about 1.8 MFLOP and half a millisecond a round. It touches none
// of the repository's code, so its speed is a reading of the host, not of
// the program.
//
// This host changes speed by up to 2x for seconds to minutes at a time (a
// busy neighbour on the core's other hardware thread), which would swamp any
// bound on a host-clock metric. So every timed operation is bracketed by
// calibration rounds, and its time is also reported at the reference speed:
// raw time x (speed measured around it) / refGFLOPS. On a quiet host the two
// agree; on a disturbed one the referenced time moves a fifth as much.
const (
	calibN    = 96
	refGFLOPS = 4.0
	calibAge  = 10 * time.Millisecond // a reading older than this is taken again
)

type calibrator struct {
	a, b, c []float32
	last    float64 // GFLOP/s of the latest round
	at      time.Time
}

func newCalibrator() *calibrator {
	n := calibN * calibN
	k := &calibrator{a: make([]float32, n), b: make([]float32, n), c: make([]float32, n)}
	for i := range k.a {
		k.a[i] = float32(i%7) * 0.25
		k.b[i] = float32(i%5) * 0.5
	}
	return k
}

// round runs the kernel once and returns its GFLOP/s.
func (k *calibrator) round() float64 {
	const n = calibN
	a, b, c := k.a, k.b, k.c
	for i := range c {
		c[i] = 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ci := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			av := a[i*n+j]
			bj := b[j*n : (j+1)*n]
			for x := range ci {
				ci[x] += av * bj[x]
			}
		}
	}
	k.at = time.Now()
	k.last = 2 * n * n * n / float64(k.at.Sub(t0).Nanoseconds())
	return k.last
}

// speed is the host's current reading, at most calibAge old.
func (k *calibrator) speed() float64 {
	if time.Since(k.at) > calibAge {
		k.round()
	}
	return k.last
}

// timeOp runs op and returns its wall time and its time at the reference
// host speed, from the readings on either side of it.
func (k *calibrator) timeOp(op func()) (raw, ref time.Duration) {
	before := k.speed()
	t0 := time.Now()
	op()
	raw = time.Since(t0)
	after := k.speed()
	return raw, time.Duration(float64(raw) * (before + after) / 2 / refGFLOPS)
}

// median41 is the median of 41 rounds: the reading printed before and after
// each workload. A workload whose two readings differ by more than 5% is
// printed as noisy.
func (k *calibrator) median41() float64 {
	var rates series
	for i := 0; i < 41; i++ {
		rates.add(k.round())
	}
	return rates.median()
}
