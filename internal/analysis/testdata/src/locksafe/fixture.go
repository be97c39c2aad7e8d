// Package fixture seeds locksafe violations for the analyzer's unit test.
package fixture

import (
	"sync"
	"time"

	"buffalo/internal/device"
)

type ledger struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	gpu *device.GPU
}

// BadSleep sleeps inside the critical section.
func (l *ledger) BadSleep() {
	l.mu.Lock()
	time.Sleep(time.Millisecond) // want:locksafe
	l.mu.Unlock()
}

// BadAllocUnderDefer allocates while the deferred unlock keeps the mutex
// held for the whole function.
func (l *ledger) BadAllocUnderDefer() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	a, err := l.gpu.Alloc("locked", 1) // want:locksafe
	if err != nil {
		return err
	}
	a.Free()
	return nil
}

// BadTransfer models a transfer while holding the ledger lock.
func (l *ledger) BadTransfer() {
	l.mu.Lock()
	l.gpu.TransferH2D(1 << 20) // want:locksafe
	l.mu.Unlock()
}

// BadWriteLock flags the RWMutex write lock too.
func (l *ledger) BadWriteLock() {
	l.rw.Lock()
	time.Sleep(time.Microsecond) // want:locksafe
	l.rw.Unlock()
}

// BadAsyncIssue issues an async copy inside the critical section: the issue
// itself books copy-engine time under the ledger lock, so "async" does not
// make it safe to hold a mutex across.
func (l *ledger) BadAsyncIssue() {
	l.mu.Lock()
	l.gpu.TransferH2DAsync(1 << 20) // want:locksafe
	l.mu.Unlock()
}

// BadWaitUnderLock stalls on the copy engine while holding the lock — the
// prefetch-consumer handoff would serialize on it.
func (l *ledger) BadWaitUnderLock(done time.Duration) {
	l.mu.Lock()
	l.gpu.WaitTransfer(done) // want:locksafe
	l.mu.Unlock()
}

// GoodCacheShape is the feature-cache discipline: the mutex guards pure
// in-memory bookkeeping only, and every device call (reservation, copy)
// happens outside the critical section.
func (l *ledger) GoodCacheShape(resident map[int64]bool, key int64) {
	l.gpu.TransferH2DAsync(1 << 10)
	l.mu.Lock()
	resident[key] = true
	l.mu.Unlock()
}

// GoodAfterUnlock does the blocking work outside the critical section.
func (l *ledger) GoodAfterUnlock() {
	l.mu.Lock()
	l.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// GoodClosure defers work to a function literal that runs later, with its
// own analysis scope.
func (l *ledger) GoodClosure() func() {
	l.mu.Lock()
	defer l.mu.Unlock()
	return func() { time.Sleep(time.Millisecond) }
}

// GoodBranch unlocks in both branches before sleeping.
func (l *ledger) GoodBranch(x bool) {
	l.mu.Lock()
	l.mu.Unlock()
	if x {
		time.Sleep(time.Millisecond)
	}
}

// fanout mimics the multi-GPU loader: one shared prefetcher staging onto
// per-replica devices, with a mutex guarding the lane bookkeeping that
// every consumer reads.
type fanout struct {
	mu     sync.Mutex
	staged map[int]int
	gpus   []*device.GPU
}

// BadStageUnderLock issues the device copy inside the bookkeeping critical
// section: every other replica's consumer serializes on one lane's transfer.
func (f *fanout) BadStageUnderLock(dev int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.staged[dev]++
	f.gpus[dev].TransferH2DAsync(1 << 20) // want:locksafe
}

// BadCacheReserveUnderLock reserves per-device cache capacity while holding
// the residency lock shared by all devices.
func (f *fanout) BadCacheReserveUnderLock(dev int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	a, err := f.gpus[dev].Alloc("feature-cache", 1<<20) // want:locksafe
	if err != nil {
		return err
	}
	a.Free()
	return nil
}

// GoodStageShape is the shared-loader discipline: the device copy is issued
// first, and the mutex guards only the in-memory lane counters.
func (f *fanout) GoodStageShape(dev int) {
	f.gpus[dev].TransferH2DAsync(1 << 20)
	f.mu.Lock()
	f.staged[dev]++
	f.mu.Unlock()
}

// reserve is the helper the intraprocedural analyzer cannot see through:
// the ledger allocation is one call away from the critical section.
func (l *ledger) reserve() error {
	a, err := l.gpu.Alloc("helper", 1)
	if err != nil {
		return err
	}
	a.Free()
	return nil
}

// stageViaHelper adds a second hop on the way to the allocation.
func (l *ledger) stageViaHelper() error { return l.reserve() }

// BadHelperAlloc allocates through a helper while the deferred unlock keeps
// the mutex held — invisible to a one-call-at-a-time analyzer, caught by
// the call graph.
func (l *ledger) BadHelperAlloc() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reserve() // want:locksafe-transitive
}

// BadTwoHopAlloc reaches the allocation through two helpers.
func (l *ledger) BadTwoHopAlloc() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stageViaHelper() // want:locksafe-transitive
}

// withHook runs a caller-provided callback synchronously.
func (l *ledger) withHook(fn func()) { fn() }

// BadHookTransfer hands a blocking callback to a helper that may invoke it
// while the lock is held: the literal argument is a synchronous edge.
func (l *ledger) BadHookTransfer() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.withHook(func() { l.gpu.TransferH2D(1 << 10) }) // want:locksafe-transitive
}

// GoodSpawnUnderLock hands the blocking work to another goroutine: the
// critical section itself never blocks (the spawned body runs on its own
// goroutine, outside the lock's jurisdiction).
func (l *ledger) GoodSpawnUnderLock(done chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	go func() {
		l.gpu.TransferH2D(1 << 10)
		close(done)
	}()
}

// bump is pure bookkeeping; calling it under the lock is fine.
func (l *ledger) bump(resident map[int64]bool, key int64) { resident[key] = true }

// GoodHelperBookkeeping calls a non-blocking helper under the lock.
func (l *ledger) GoodHelperBookkeeping(resident map[int64]bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bump(resident, 7)
}

// stageBackend abstracts a staging target; the method name is unexported,
// so only this fixture's types can satisfy it.
type stageBackend interface {
	stageBlock(n int64)
}

type devBackend struct{ gpu *device.GPU }

func (d *devBackend) stageBlock(n int64) { d.gpu.TransferH2D(n) }

type memBackend struct{ total int64 }

func (m *memBackend) stageBlock(n int64) { m.total += n }

// BadInterfaceStage dispatches through the interface while holding the
// bookkeeping lock: class-hierarchy analysis considers every implementing
// type, and devBackend blocks.
func (f *fanout) BadInterfaceStage(t stageBackend) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t.stageBlock(1 << 20) // want:locksafe-transitive
}

// cell carries a mutex reached through computed indices — the exprKey
// regression: index expressions with arithmetic used to collapse to one
// "?" key, so two distinct mutexes looked identical.
type cell struct {
	mu sync.Mutex
}

// BadDistinctUnknown locks one computed mutex and unlocks a different one:
// the first stays held across the sleep. Before the exprKey fix both
// expressions keyed as "cs[?].mu" and the unlock wrongly released the lock.
func BadDistinctUnknown(cs []cell, i, j int) {
	cs[i+1].mu.Lock()
	cs[j-1].mu.Unlock()
	time.Sleep(time.Millisecond) // want:locksafe
}

// GoodMatchedUnknown locks and unlocks the same computed expression: the
// structural keys must still pair up, releasing the lock before the sleep.
func GoodMatchedUnknown(cs []cell, i int) {
	cs[i+1].mu.Lock()
	cs[i+1].mu.Unlock()
	time.Sleep(time.Millisecond)
}

// reducer mimics the bucketed gradient reduce: a cluster comm engine with a
// mutex guarding bucket bookkeeping shared with the planner pool.
type reducer struct {
	mu      sync.Mutex
	cluster *device.Cluster
	buckets map[int]int64
}

// BadLaunchUnderLock launches a bucket's ring reduce inside the critical
// section: the launch books interconnect time on the comm-engine clock, and
// every other goroutine touching the bucket table serializes on it.
func (r *reducer) BadLaunchUnderLock(j int, ready time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cluster.AllReduceAsync(r.buckets[j], ready) // want:locksafe
}

// BadWaitReduceUnderLock stalls on the comm engine while holding the lock —
// the optimizer-step handoff would serialize behind the slowest bucket.
func (r *reducer) BadWaitReduceUnderLock(done time.Duration) {
	r.mu.Lock()
	r.cluster.WaitReduce(done) // want:locksafe
	r.mu.Unlock()
}

// BadExposedReduceUnderDefer launches the whole gradient payload's
// all-reduce at the compute tail and waits for it while the deferred unlock
// keeps the mutex held.
func (r *reducer) BadExposedReduceUnderDefer(size int64, tail time.Duration) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cluster.AllReduceAsync(size, tail) // want:locksafe
	return r.cluster.WaitReduce(tail)    // want:locksafe
}

// GoodReduceShape is the engine's discipline: read the bucket size under the
// lock, launch and wait with no locks held.
func (r *reducer) GoodReduceShape(j int, ready time.Duration) time.Duration {
	r.mu.Lock()
	size := r.buckets[j]
	r.mu.Unlock()
	r.cluster.AllReduceAsync(size, ready)
	return r.cluster.WaitReduce(ready)
}

// BadReduceScatterUnderLock launches the sharded collective inside the
// critical section — the ZeRO-1 combine's per-bucket reduce-scatter books
// interconnect time exactly like an all-reduce launch.
func (r *reducer) BadReduceScatterUnderLock(j int, ready time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cluster.ReduceScatterAsync(r.buckets[j], ready) // want:locksafe
}

// BadAllGatherUnderLock books the value all-gather that closes a ZeRO-1
// iteration while holding the shard-bookkeeping lock.
func (r *reducer) BadAllGatherUnderLock(size int64, ready time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cluster.AllGatherAsync(size, ready) // want:locksafe
}

// GoodShardedCombineShape is the sharded combine's discipline, mirroring
// GoodReduceShape: snapshot shard state under the lock, then launch the
// reduce-scatter, wait, and launch the closing all-gather lock-free.
func (r *reducer) GoodShardedCombineShape(j int, valueBytes int64, ready time.Duration) time.Duration {
	r.mu.Lock()
	size := r.buckets[j]
	r.mu.Unlock()
	r.cluster.ReduceScatterAsync(size, ready)
	stall := r.cluster.WaitReduce(ready)
	r.cluster.AllGatherAsync(valueBytes, ready+stall)
	return stall
}

// tap mimics the obs streaming tap: a bounded channel consumers drain, with
// a mutex guarding the producer-side bookkeeping. Channel operations park
// the goroutine just like a transfer does, so holding the lock across one
// stalls every other producer.
type tap struct {
	mu      sync.Mutex
	ch      chan int
	dropped int
}

// BadSendUnderLock parks every producer on a slow consumer while the
// bookkeeping lock is held.
func (t *tap) BadSendUnderLock(v int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ch <- v // want:locksafe
}

// BadRecvUnderLock drains the stream inside the critical section.
func (t *tap) BadRecvUnderLock() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return <-t.ch // want:locksafe
}

// BadBlockingSelectUnderLock parks on two channels with the lock held — no
// default clause means this select is a wait, not a poll.
func (t *tap) BadBlockingSelectUnderLock(stop chan struct{}) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	select { // want:locksafe
	case v := <-t.ch:
		return v
	case <-stop:
		return 0
	}
}

// BadRangeUnderLock holds the lock across an entire stream drain: the
// producer side cannot make progress until the channel closes.
func (t *tap) BadRangeUnderLock() (n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for range t.ch { // want:locksafe
		n++
	}
	return n
}

// GoodOfferShape is the tap's offer discipline: a select with a default
// clause never parks, so counting the drop under the lock is fine.
func (t *tap) GoodOfferShape(v int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case t.ch <- v:
	default:
		t.dropped++
	}
}

// publish is the helper hop the intraprocedural analyzer cannot see
// through: a bare channel send one call away.
func (t *tap) publish(v int) { t.ch <- v }

// BadPublishUnderLock reaches the send through a helper — the call graph's
// jurisdiction.
func (t *tap) BadPublishUnderLock(v int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.publish(v) // want:locksafe-transitive
}

// batcher mimics the serving front-end: a coalescing goroutine assembling
// requests from an intake channel into batches, with a mutex guarding the
// batch bookkeeping. The discipline under test: channel waits (intake
// receive, executor-queue send, the MaxWait timer select) must happen
// outside the critical section — a send to the bounded executor queue under
// the lock would stall every concurrent Infer on a full queue.
type batcher struct {
	mu    sync.Mutex
	batch []int
	reqs  chan int
	execQ chan []int
}

// BadSendUnderLock hands a sealed batch to the bounded executor queue while
// still holding the batch lock: when the queue is full, every producer
// blocks on this mutex for as long as the executor is busy.
func (b *batcher) BadSendUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	sealed := b.batch
	b.batch = nil
	b.execQ <- sealed // want:locksafe
}

// BadIntakeRecvUnderLock pulls the next request off the intake channel
// inside the critical section — an idle server parks here holding the lock.
func (b *batcher) BadIntakeRecvUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.batch = append(b.batch, <-b.reqs) // want:locksafe
}

// BadTimerSelectUnderLock runs the MaxWait coalescing select — intake
// arrival vs window expiry — with the lock held: the select blocks up to
// the full window.
func (b *batcher) BadTimerSelectUnderLock(timer *time.Timer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // want:locksafe
	case v := <-b.reqs:
		b.batch = append(b.batch, v)
	case <-timer.C:
		b.batch = nil
	}
}

// GoodShedPoll offers a sealed batch with a non-blocking send — a select
// with a default never parks, so holding the bookkeeping lock across it is
// fine (this is the shed-on-full admission shape).
func (b *batcher) GoodShedPoll(sealed []int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case b.execQ <- sealed:
		return true
	default:
		return false
	}
}

// GoodSealOutsideLock is the batcher discipline: the lock covers only the
// swap of the assembling batch; the blocking handoff happens after unlock.
func (b *batcher) GoodSealOutsideLock() {
	b.mu.Lock()
	sealed := b.batch
	b.batch = nil
	b.mu.Unlock()
	b.execQ <- sealed
}
