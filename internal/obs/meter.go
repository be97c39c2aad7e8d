package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Meter is a live terminal readout fed by a Recorder tap: it consumes the
// event stream in its own goroutine and periodically rewrites one status
// line (carriage return, no scrollback spam) showing per-device live/peak
// memory, the iteration rate, and the phase mix of recent span time. It is
// a consumer only — a slow terminal makes the tap drop events (counted and
// shown), never stalls training.
type Meter struct {
	rec *Recorder
	tap *Tap
	w   io.Writer

	interval time.Duration
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	mu      sync.Mutex
	devs    map[string]*meterDev
	phases  map[Kind]time.Duration
	iters   int64
	started time.Time
	lastLen int
}

type meterDev struct {
	live int64
	peak int64
}

// NewMeter subscribes a meter to the recorder and starts its render loop,
// refreshing every interval (a non-positive interval defaults to 500ms).
// Returns nil when the recorder is disabled. Call Stop to detach.
func NewMeter(r *Recorder, w io.Writer, interval time.Duration) *Meter {
	if r == nil {
		return nil
	}
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	m := &Meter{
		rec:      r,
		tap:      r.Subscribe(0),
		w:        w,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		devs:     make(map[string]*meterDev),
		phases:   make(map[Kind]time.Duration),
		started:  time.Now(),
	}
	go m.run()
	return m
}

// Stop unsubscribes the tap, finishes the render loop, and terminates the
// status line with a newline so subsequent output starts clean. Safe on a
// nil receiver and safe to call more than once (later calls block until the
// first finishes, then no-op).
func (m *Meter) Stop() {
	if m == nil {
		return
	}
	m.rec.Unsubscribe(m.tap)
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

func (m *Meter) run() {
	defer close(m.done)
	tick := time.NewTicker(m.interval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			// Drain whatever is already buffered, then render the final
			// state and move off the status line.
			for {
				select {
				case ev := <-m.tap.ch:
					m.ingest(ev)
				default:
					m.render(true)
					return
				}
			}
		case ev := <-m.tap.ch:
			m.ingest(ev)
		case <-tick.C:
			m.render(false)
		}
	}
}

func (m *Meter) ingest(ev Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch ev.Kind {
	case KindAlloc, KindFree, KindOOM:
		if ev.Dev == "" {
			return
		}
		d := m.devs[ev.Dev]
		if d == nil {
			d = &meterDev{}
			m.devs[ev.Dev] = d
		}
		d.live = ev.Live
		if ev.Live > d.peak {
			d.peak = ev.Live
		}
	case KindIteration:
		m.iters++
		m.phases[ev.Kind] += ev.Dur
	default:
		if ev.Dur > 0 {
			m.phases[ev.Kind] += ev.Dur
		}
	}
}

// phaseMixKinds are the span kinds the meter attributes time to, in display
// order — the same coarse phases the paper's Fig 11 breakdown uses, with the
// interconnect's busy time split by collective.
var phaseMixKinds = []Kind{KindSample, KindBlockGen, KindTransferH2D, KindForward, KindBackward, KindOptStep,
	KindBucketReduce, KindReduceScatter, KindAllGather}

func (m *Meter) render(final bool) {
	m.mu.Lock()
	var b strings.Builder
	names := make([]string, 0, len(m.devs))
	for name := range m.devs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := m.devs[name]
		b.WriteString(fmt.Sprintf("%s %s/%s  ", name, fmtBytes(d.live), fmtBytes(d.peak)))
	}
	elapsed := time.Since(m.started).Seconds()
	if elapsed > 0 {
		b.WriteString(fmt.Sprintf("%.2f it/s  ", float64(m.iters)/elapsed))
	}
	var total time.Duration
	for _, k := range phaseMixKinds {
		total += m.phases[k]
	}
	if total > 0 {
		parts := make([]string, 0, len(phaseMixKinds))
		for _, k := range phaseMixKinds {
			if d := m.phases[k]; d > 0 {
				parts = append(parts, fmt.Sprintf("%s %.0f%%", k, 100*float64(d)/float64(total)))
			}
		}
		b.WriteString(strings.Join(parts, " "))
	}
	if n := m.tap.Dropped(); n > 0 {
		b.WriteString(fmt.Sprintf("  [%d dropped]", n))
	}
	line := b.String()
	pad := m.lastLen - len(line)
	m.lastLen = len(line)
	m.mu.Unlock()

	if pad < 0 {
		pad = 0
	}
	// A meter write is best-effort by design: the tap already guarantees a
	// slow or broken terminal can't stall training, and there is nothing to
	// do with a render error mid-run.
	_, _ = fmt.Fprintf(m.w, "\r%s%s", line, strings.Repeat(" ", pad))
	if final {
		_, _ = fmt.Fprintln(m.w)
	}
}

// fmtBytes renders a byte count with a binary-unit suffix, compact enough
// for a one-line meter.
func fmtBytes(n int64) string {
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
