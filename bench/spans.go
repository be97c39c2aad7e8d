package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Name is "<package>.<what>": the part before the dot is the layer
// the time is billed to. Parent is the index of the span that was open when
// this one began (-1 at the top), ID the iteration or request the span
// belongs to.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's origin
	Parent     int
	ID         int
}

// tracer keeps spans in memory; nothing is written until the run ends. A nil
// tracer, or one switched off, records nothing, so the same replay code runs
// traced and untraced. begin/end are for one goroutine's nested calls; add
// takes spans whose times were measured elsewhere (requests in flight at the
// same time).
type tracer struct {
	workload string
	origin   time.Time
	on       bool
	id       int
	spans    []span
	stack    []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now(), on: true}
}

func (t *tracer) active() bool { return t != nil && t.on }

func (t *tracer) begin(name string) int {
	if !t.active() {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, ID: t.id})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	t.spans[i].Start = time.Since(t.origin)
	return i
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.origin)
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) add(name string, start, end time.Duration, parent, id int) int {
	if !t.active() {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, ID: id})
	return len(t.spans) - 1
}

// layerOf is the package a span is billed to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per span, its duration minus the time its children
// cover. Children recorded by begin/end nest and do not overlap, so the
// covered time is their summed duration.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// busyByID sums self time per span name for every ID: busy[name][id]. The
// replay uses one ID per iteration, so each entry is one iteration's time in
// that call.
func (t *tracer) busyByID() map[string]map[int]time.Duration {
	out := map[string]map[int]time.Duration{}
	if t == nil {
		return out
	}
	for i, d := range t.selfTimes() {
		s := t.spans[i]
		m := out[s.Name]
		if m == nil {
			m = map[int]time.Duration{}
			out[s.Name] = m
		}
		m[s.ID] += d
	}
	return out
}

// writeChrome writes the spans as Chrome-trace "X" events (open in
// chrome://tracing or ui.perfetto.dev). Nested replay spans share thread 1;
// spans added with their own times (overlapping requests) are spread over
// threads by ID so they do not draw on top of each other.
func (t *tracer) writeChrome(dir string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", t.workload, seed))
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		tid := 1
		if strings.HasPrefix(s.Name, "serve.") {
			tid = 2 + s.ID%64
		}
		events[i] = event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, PID: 1, TID: tid,
			Args: map[string]any{"workload": t.workload, "id": s.ID, "span": i, "parent": s.Parent},
		}
	}
	b, err := json.Marshal(events)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
