// Package fixture seeds errcheck violations for the analyzer's unit test.
package fixture

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"buffalo/internal/device"
)

// Drops discards the error of a call that can fail.
func Drops() {
	os.Remove("/tmp/buffalo-vet-fixture") // want:errcheck
}

// GoDrop discards an error inside a go statement.
func GoDrop() {
	go os.Remove("/tmp/buffalo-vet-fixture") // want:errcheck
}

// DeferDrop discards a deferred Close error on a written file.
func DeferDrop(f *os.File) {
	defer f.Close() // want:errcheck
}

// Checked handles the error: clean.
func Checked() error {
	if err := os.Remove("/tmp/buffalo-vet-fixture"); err != nil {
		return err
	}
	return nil
}

// Deliberate discards explicitly, which is reviewable: clean.
func Deliberate() {
	_ = os.Remove("/tmp/buffalo-vet-fixture")
}

// ExportDrop mimics a trace exporter that drops write errors: a truncated
// file would look like a successful export. fmt.Fprint* is only exempt when
// the destination is a std stream, not an arbitrary io.Writer.
func ExportDrop(w io.Writer, events []int64) {
	fmt.Fprintln(w, "[")          // want:errcheck
	json.NewEncoder(w).Encode(42) // want:errcheck
	for _, e := range events {
		fmt.Fprintf(w, "%d\n", e) // want:errcheck
	}
}

// ExportPropagates is the reviewable exporter shape — every write error
// reaches the caller: clean.
func ExportPropagates(w io.Writer, events []int64) error {
	if _, err := fmt.Fprintln(w, "["); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "]")
	return err
}

// boundedQueue mimics the pipeline loader's queue: Push fails on shutdown,
// and Close reports the first stage error. Dropping either hides a dead
// pipeline behind an apparently healthy training loop.
type boundedQueue struct{ ch chan int }

func (q *boundedQueue) Push(v int) error {
	select {
	case q.ch <- v:
		return nil
	default:
		return io.ErrClosedPipe
	}
}

func (q *boundedQueue) Close() error { return io.ErrClosedPipe }

// StageDrop pushes to the next stage without checking for shutdown.
func StageDrop(q *boundedQueue) {
	q.Push(1) // want:errcheck
}

// ShutdownDrop discards the pipeline's first-error on teardown.
func ShutdownDrop(q *boundedQueue) {
	defer q.Close() // want:errcheck
}

// StagePropagates is the reviewable stage shape — a failed push unwinds the
// stage: clean.
func StagePropagates(q *boundedQueue) error {
	if err := q.Push(1); err != nil {
		return err
	}
	return q.Close()
}

// laneQueue mimics the multi-GPU fan-out: one bounded queue per replica,
// where a failed push or pop means the shared pipeline has shut down.
type laneQueue struct{ lanes []chan int }

func (q *laneQueue) Push(lane, v int) error {
	select {
	case q.lanes[lane] <- v:
		return nil
	default:
		return io.ErrClosedPipe
	}
}

func (q *laneQueue) Pop(lane int) (int, error) {
	select {
	case v := <-q.lanes[lane]:
		return v, nil
	default:
		return 0, io.ErrClosedPipe
	}
}

// DispatchDrop deals work round-robin without checking for a closed lane:
// a dead replica's micro-batches silently vanish.
func DispatchDrop(q *laneQueue, items []int) {
	for i, v := range items {
		q.Push(i%len(q.lanes), v) // want:errcheck
	}
}

// ConsumeDrop discards a lane pop's shutdown error along with its value.
func ConsumeDrop(q *laneQueue) {
	q.Pop(0) // want:errcheck
}

// DispatchPropagates is the reviewable fan-out shape — the first closed
// lane unwinds the dispatcher: clean.
func DispatchPropagates(q *laneQueue, items []int) error {
	for i, v := range items {
		if err := q.Push(i%len(q.lanes), v); err != nil {
			return err
		}
	}
	return nil
}

// reorder mimics a planner pool's sequence-number reorder buffer: Put
// fails on a duplicate or out-of-window sequence (a planner bug) or on
// shutdown, and Pop's error is the only way a consumer learns the pool
// died. Dropping either turns a wedged planner pool into a silent hang.
type reorder struct{ next uint64 }

func (r *reorder) Put(seq uint64, v int) error {
	if seq < r.next {
		return io.ErrClosedPipe
	}
	return nil
}

func (r *reorder) Pop() (int, error) { return 0, io.ErrClosedPipe }

// PlannerDrop delivers a plan without checking for a dead or out-of-order
// buffer: the worker keeps planning batches nobody will consume.
func PlannerDrop(r *reorder, seq uint64) {
	r.Put(seq, 1) // want:errcheck
}

// PrefetchDrop discards the pop error along with the plan — the consumer
// spins on zero values after shutdown.
func PrefetchDrop(r *reorder) {
	r.Pop() // want:errcheck
}

// PlannerPropagates is the reviewable pool-worker shape — a failed delivery
// unwinds the worker: clean.
func PlannerPropagates(r *reorder, seq uint64) error {
	if err := r.Put(seq, 1); err != nil {
		return err
	}
	_, err := r.Pop()
	return err
}

// Exempt exercises the best-effort allowlist: clean.
func Exempt(sb *strings.Builder) {
	fmt.Println("stdout printing is best-effort")
	fmt.Fprintln(os.Stderr, "stderr printing is best-effort")
	sb.WriteString("in-memory sinks never fail")
}

// ManifestDrop mimics a run-manifest writer that drops the encode error: a
// truncated baseline file gates every later run against garbage.
func ManifestDrop(w io.Writer, m interface{}) {
	json.NewEncoder(w).Encode(m) // want:errcheck
}

// ManifestCloseDrop writes the manifest but ignores both the encode and the
// flush-on-close error — the classic silently-short report file.
func ManifestCloseDrop(path string, m interface{}) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	json.NewEncoder(f).Encode(m) // want:errcheck
	f.Close()                    // want:errcheck
}

// ManifestPropagates is the reviewable writer shape — encode and close
// errors both reach the caller: clean.
func ManifestPropagates(path string, m interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(m); err != nil {
		_ = f.Close() // the encode failure is the error worth reporting
		return err
	}
	return f.Close()
}

// admission mimics the serving admission controller charging batch
// reservations to the device ledger.
type admission struct {
	gpu *device.GPU
}

// BadReserveDrop charges a reservation as a bare statement: the OOM signal —
// the one admission control exists to observe — is silently discarded, and
// the returned allocation leaks unreleasable.
func (a *admission) BadReserveDrop(n int64) {
	a.gpu.Alloc("serve/admission", n) // want:errcheck
}

// BadWarmupDrop fires the calibration warm-up on a goroutine and drops its
// error: a failed warm-up leaves the admission charge at its zero value.
func (a *admission) BadWarmupDrop(warm func() error) {
	go warm() // want:errcheck
}

// ReservePropagates is the reviewable admission shape: a refused reservation
// reports false and the allocation's release travels with the batch.
func (a *admission) ReservePropagates(n int64) (func(), bool) {
	al, err := a.gpu.Alloc("serve/admission", n)
	if err != nil {
		return nil, false
	}
	return al.Free, true
}

// flatParams mimics nn.ParamSet.Flatten: building the contiguous buffer
// fails on a degenerate bucket size or shard count, and the sharded
// optimizer cannot run without it.
type flatParams struct{}

func (f *flatParams) Flatten(bucketBytes int64, shards int) (*flatParams, error) {
	if bucketBytes <= 0 || shards < 1 {
		return nil, io.ErrClosedPipe
	}
	return f, nil
}

// ShardSetupDrop flattens the parameters without checking the error: the
// engine proceeds to reduce-scatter a buffer that was never built.
func ShardSetupDrop(f *flatParams) {
	f.Flatten(1<<20, 4) // want:errcheck
}

// ShardSetupPropagates is the reviewable sharded-engine shape — a failed
// flatten aborts construction before any collective is launched: clean.
func ShardSetupPropagates(f *flatParams) (*flatParams, error) {
	fb, err := f.Flatten(1<<20, 4)
	if err != nil {
		return nil, err
	}
	return fb, nil
}
