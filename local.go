package dualvdd

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"dualvdd/internal/logic"
)

// Local is the in-process Runner: a bounded job queue drained by a worker
// pool (fanned out by the same Batch primitive that powers suite
// evaluation), per-job contexts for cancellation, a content-addressed result
// cache so identical submissions are answered without recomputation, and
// warm prepared-state sharing: jobs whose circuit and high-rail
// configuration match share one WarmDesign — mapped netlist, baseline timing
// engine, activity table — and each job re-converges only its own rails on
// it. Results, job content addresses and cache behavior are exactly those of
// a standalone Flow run; only the wall clock and the evaluation totals
// differ. The warmGroups most recently used groups stay resident; an evicted
// group is rebuilt on next use.
// It is the reference implementation of the Runner contract — the server
// package puts an HTTP surface in front of exactly this, and the httptest
// integration suite holds the two to the same behavior.
//
// A Local is safe for concurrent use. Close drains it; after Close, Submit
// fails with ErrClosed. Terminal jobs stay queryable up to the
// LocalJobHistory bound, then are forgotten — a long-lived service holds a
// bounded amount of state no matter how many jobs pass through.
type Local struct {
	queue      chan *localJob
	workers    int
	cacheLimit int
	history    int

	// cache is the content-addressed result store (nil = caching disabled)
	// and journal the optional durability log of terminal jobs. Both default
	// to the in-memory implementations; LocalResultCache / LocalJobStore
	// swap in the disk-backed ones from internal/store, which is what makes
	// a restarted service resume instead of recompute.
	cache   ResultCache
	journal JobStore

	mu       sync.Mutex
	jobs     map[JobID]*localJob      // guarded by mu
	inflight map[string]JobID         // guarded by mu; content key → live job, for idempotent resubmission
	retired  []JobID                  // guarded by mu; terminal jobs in completion order, oldest first
	order    int64                    // guarded by mu
	closed   bool                     // guarded by mu
	idle     chan struct{}            // closed when the worker pool exits; receiving needs no lock
	warm     map[string]*list.Element // guarded by mu
	warmLRU  *list.List               // guarded by mu; front = most recent; values are *warmEntry
	metrics  Metrics                  // guarded by mu
}

// warmGroups bounds both the warm-prep groups a Local keeps resident and the
// points — hence per-circuit chains — Sweep.Run keeps in flight by default,
// so a default sweep never evicts a group its chains still walk.
const warmGroups = 16

// warmEntry is one warm-prep group: every job whose warmPrepKey matches
// shares the WarmDesign built by the group's first runner. The build runs
// exactly once (sync.Once) under the background context — the group outlives
// any one job, so a member's cancellation must not poison it. A failed build
// is cached too: the failure is a deterministic property of the circuit and
// config, so every member fails identically instead of rebuilding in a loop.
type warmEntry struct {
	key  string
	once sync.Once
	wd   *WarmDesign
	err  error
}

// localJob is one submission's full record: spec, lifecycle state, the
// per-job context, and the append-only event log Watch replays.
type localJob struct {
	spec Job
	key  string
	seq  int64          // submission counter; journaled for replay
	net  *logic.Network // parsed once at Submit

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	status JobStatus     // guarded by mu
	events []Event       // guarded by mu
	update chan struct{} // guarded by mu; closed and replaced on every append/state change
	done   chan struct{} // closed on terminal state; receiving needs no lock
}

// LocalOption configures NewLocal.
type LocalOption func(*Local)

// LocalWorkers bounds the worker pool (default 1, minimum 1). Each worker
// runs one job at a time; jobs themselves may still parallelize their logic
// simulation via WithSimWorkers.
func LocalWorkers(n int) LocalOption {
	return func(l *Local) {
		if n > 0 {
			l.workers = n
		}
	}
}

// LocalQueueDepth bounds how many submitted jobs may wait for a worker
// (default 64). A full queue rejects Submit with ErrQueueFull — backpressure
// instead of unbounded memory.
func LocalQueueDepth(n int) LocalOption {
	return func(l *Local) {
		if n >= 0 {
			l.queue = make(chan *localJob, n)
		}
	}
}

// LocalCacheEntries bounds the content-addressed result cache (default 256).
// Zero disables caching. The option configures the default in-memory LRU;
// LocalResultCache overrides it entirely.
func LocalCacheEntries(n int) LocalOption {
	return func(l *Local) {
		if n >= 0 {
			l.cacheLimit = n
		}
	}
}

// LocalResultCache swaps the runner's result cache for a custom
// implementation — typically the disk CAS from internal/store, so cached
// results survive the process. It overrides LocalCacheEntries; nil keeps the
// default. The runner does not Close the cache: the caller owns its
// lifecycle (a disk CAS may be shared across restarts by construction).
func LocalResultCache(c ResultCache) LocalOption {
	return func(l *Local) { l.cache = c }
}

// LocalJobStore attaches a durability journal: every terminal job is
// appended, and NewLocal replays the store so the previous life's terminal
// jobs stay queryable (Status/Result/Watch see the recorded outcome; the
// replayed event log is empty) and ID allocation resumes past them. The
// journal never changes what runs — it only remembers. Append failures are
// counted on Metrics.StoreErrors rather than failing jobs. The caller owns
// the store's lifecycle.
func LocalJobStore(s JobStore) LocalOption {
	return func(l *Local) { l.journal = s }
}

// LocalJobHistory bounds how many terminal jobs stay queryable (default
// 1024, minimum 1). Past the bound the oldest-completed job is forgotten —
// its ID starts returning ErrJobNotFound — so a long-lived service does not
// accumulate event logs and results without end. Queued and running jobs
// never count against the bound.
func LocalJobHistory(n int) LocalOption {
	return func(l *Local) {
		if n > 0 {
			l.history = n
		}
	}
}

// NewLocal builds a Local runner and starts its worker pool. With a
// LocalJobStore attached, the store is replayed first: the previous life's
// terminal jobs become queryable history and ID allocation resumes past the
// largest replayed sequence number.
func NewLocal(opts ...LocalOption) *Local {
	l := &Local{
		workers:    1,
		cacheLimit: 256,
		history:    1024,
		jobs:       make(map[JobID]*localJob),
		inflight:   make(map[string]JobID),
		idle:       make(chan struct{}),
		warm:       make(map[string]*list.Element),
		warmLRU:    list.New(),
	}
	for _, opt := range opts {
		opt(l)
	}
	if l.queue == nil {
		l.queue = make(chan *localJob, 64)
	}
	if l.cache == nil && l.cacheLimit > 0 {
		l.cache = NewMemoryCache(l.cacheLimit)
	}
	if l.journal != nil {
		l.replayJournal()
	}
	// The pool is Batch fanning out n infinite worker loops: each pool
	// goroutine takes exactly one loop (a loop only returns at drain), so
	// the service reuses the one deterministic fan-out primitive the
	// repository already trusts instead of a second hand-rolled pool.
	go func() {
		defer close(l.idle)
		_ = Batch{Workers: l.workers}.Each(context.Background(), l.workers,
			func(context.Context, int) error {
				for j := range l.queue {
					l.runJob(j)
				}
				return nil
			})
	}()
	return l
}

var _ Runner = (*Local)(nil)
var _ MetricsProvider = (*Local)(nil)

// Submit validates the job, answers it from the cache on a content hit, and
// otherwise enqueues it. See Runner.
func (l *Local) Submit(ctx context.Context, job Job) (JobID, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	budget, hasBudget := JobBudget(ctx)
	if hasBudget && budget <= 0 {
		l.mu.Lock()
		l.metrics.BudgetRejects++
		l.mu.Unlock()
		return "", ErrBudgetExhausted
	}
	key, net, err := job.key() // validates and parses the circuit once
	if err != nil {
		return "", err
	}
	// The per-job context is detached from the Submit ctx (the job outlives
	// the call) but bounded by the remaining deadline budget when one is set:
	// a job that overruns its end-to-end budget is cancelled, not left
	// burning a worker nobody is waiting for.
	var jctx context.Context
	var jcancel context.CancelFunc
	if hasBudget {
		//lint:ctx-ok documented detachment above: jobs outlive Submit, budget-bounded
		jctx, jcancel = context.WithTimeout(context.Background(), budget)
	} else {
		//lint:ctx-ok documented detachment above: jobs outlive Submit, Cancel/Close-bounded
		jctx, jcancel = context.WithCancel(context.Background())
	}
	j := &localJob{
		spec:   job,
		key:    key,
		net:    net,
		ctx:    jctx,
		cancel: jcancel,
		update: make(chan struct{}),
		done:   make(chan struct{}),
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		jcancel()
		return "", ErrClosed
	}
	// Submission is idempotent on the job's content address while a matching
	// job is in flight: a retried POST whose first attempt actually landed (the
	// response died in transit, not the request) is answered with the live
	// job's ID instead of queueing — and computing — a duplicate.
	if prior, ok := l.inflight[key]; ok {
		l.metrics.SubmitDedups++
		l.mu.Unlock()
		jcancel()
		return prior, nil
	}
	l.order++
	j.seq = l.order
	id := JobID(fmt.Sprintf("job-%06d-%s", j.seq, key[:8]))
	j.status = JobStatus{ID: id, State: JobQueued}
	l.mu.Unlock()

	// The cache lookup happens outside l.mu: a disk-backed ResultCache does
	// I/O, and the interface carries its own synchronization. The fallible
	// surface is preferred so backend read errors land on StoreErrors instead
	// of vanishing into the miss count.
	var entry *CachedResult
	if l.cache != nil {
		var cacheErr error
		entry, _, cacheErr = CacheGet(l.cache, key)
		if cacheErr != nil {
			l.mu.Lock()
			l.metrics.StoreErrors++
			l.mu.Unlock()
		}
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		jcancel()
		return "", ErrClosed
	}
	// Re-check under the lock that publishes in-flight jobs: a concurrent
	// twin may have won the race while the cache lookup ran unlocked.
	if prior, ok := l.inflight[key]; ok {
		l.metrics.SubmitDedups++
		l.mu.Unlock()
		jcancel()
		return prior, nil
	}
	if entry != nil {
		l.metrics.CacheHits++
		l.metrics.JobsDone++
		l.jobs[id] = j
		l.mu.Unlock()
		l.completeFromCache(j, entry)
		return id, nil
	}
	l.metrics.CacheMisses++
	select {
	case l.queue <- j:
		l.metrics.JobsQueued++
		if job.Config.NumRails() > 2 {
			l.metrics.MultiRailJobs++
		}
		l.jobs[id] = j
		l.inflight[key] = id
		l.mu.Unlock()
		return id, nil
	default:
		l.mu.Unlock()
		jcancel()
		return "", ErrQueueFull
	}
}

// completeFromCache finishes a job with another run's results, replaying the
// synthetic event history (mapped, then one result per algorithm) so Watch
// behaves the same for hits and misses.
func (l *Local) completeFromCache(j *localJob, entry *CachedResult) {
	design := *entry.Design
	st := *j.snapshot()
	st.State = JobDone
	st.Cached = true
	st.Design = &design
	st.Results = entry.Results
	j.mu.Lock()
	j.events = append(j.events, EventMapped{
		Circuit: design.Name, Gates: design.Gates,
		MinDelay: design.MinDelay, Tspec: design.Tspec, OrgPower: design.OrgPower,
	})
	for _, res := range entry.Results {
		j.events = append(j.events, EventResult{Circuit: design.Name, Result: res})
	}
	j.mu.Unlock()
	l.retire(j, st)
	j.finish(st) // wakes a Watch that attached between Submit's map insert and here
}

// find looks a job up.
func (l *Local) find(id JobID) (*localJob, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	j, ok := l.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrJobNotFound, id)
	}
	return j, nil
}

// Status returns a snapshot of the job. See Runner.
func (l *Local) Status(ctx context.Context, id JobID) (*JobStatus, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j, err := l.find(id)
	if err != nil {
		return nil, err
	}
	return j.snapshot(), nil
}

func (j *localJob) snapshot() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	// Results and Design are write-once; sharing the slice is safe because
	// terminal statuses are immutable.
	return &st
}

// Result blocks until the job is terminal. See Runner.
func (l *Local) Result(ctx context.Context, id JobID) (*JobStatus, error) {
	j, err := l.find(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Watch streams the job's events: full replay, then live until terminal.
// See Runner.
func (l *Local) Watch(ctx context.Context, id JobID) (<-chan Event, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j, err := l.find(id)
	if err != nil {
		return nil, err
	}
	out := make(chan Event)
	go func() {
		defer close(out)
		next := 0
		for {
			j.mu.Lock()
			pending := j.events[next:]
			next = len(j.events)
			update := j.update
			terminal := j.status.State.Terminal()
			j.mu.Unlock()
			for _, ev := range pending {
				select {
				case out <- ev:
				case <-ctx.Done():
					return
				}
			}
			if terminal && len(pending) == 0 {
				return
			}
			if terminal {
				continue // flush any events appended with the terminal state
			}
			select {
			case <-update:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

// Cancel stops a queued or running job. See Runner.
func (l *Local) Cancel(ctx context.Context, id JobID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	j, err := l.find(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	state := j.status.State
	if state == JobQueued {
		// Still in the channel: mark it; the worker discards the carcass on
		// dequeue. The job is terminal right now, so the JobsQueued gauge —
		// which tracks logical queued jobs, not channel-slot occupancy —
		// drops here, not at that later dequeue. The state transition under
		// j.mu makes this branch and the worker's dequeue mutually
		// exclusive: exactly one of them accounts for the job, and the
		// gauge can never go negative.
		j.status.State = JobCancelled
		j.status.Error = context.Canceled.Error()
		st := j.status
		j.mu.Unlock()
		l.mu.Lock()
		l.metrics.JobsQueued--
		l.metrics.JobsCancelled++
		l.mu.Unlock()
		l.retire(j, st)
		j.finish(st)
		return nil
	}
	j.mu.Unlock()
	// Running: cancel the per-job context; the worker records the terminal
	// state. Terminal: the cancel is a no-op on a spent context.
	j.cancel()
	return nil
}

// Metrics returns a counters snapshot.
func (l *Local) Metrics() Metrics {
	l.mu.Lock()
	m := l.metrics
	m.PrepGroups = l.warmLRU.Len()
	l.mu.Unlock()
	if l.cache != nil {
		m.CacheEntries = l.cache.Len()
		m.CacheBytes = l.cache.Bytes()
		if d, ok := l.cache.(interface{ Degraded() bool }); ok && d.Degraded() {
			m.StoreDegraded = 1
		}
	}
	return m
}

// Close stops accepting jobs and drains the queue: queued and running jobs
// finish normally. The ctx bounds the wait — when it expires every remaining
// job is cancelled and Close waits (briefly) for the pool to exit, returning
// ctx.Err().
func (l *Local) Close(ctx context.Context) error {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.queue)
	}
	jobs := make([]*localJob, 0, len(l.jobs))
	//lint:nondeterministic-ok shutdown cancels every job; cancellation order is immaterial
	for _, j := range l.jobs {
		jobs = append(jobs, j)
	}
	l.mu.Unlock()
	select {
	case <-l.idle:
		return nil
	case <-ctx.Done():
		for _, j := range jobs {
			j.cancel()
		}
		<-l.idle
		return ctx.Err()
	}
}

// bump wakes Watch subscribers; caller holds j.mu.
func (j *localJob) bump() {
	close(j.update)
	j.update = make(chan struct{})
}

// finish publishes a terminal status: Watch subscribers wake and Result
// returns. Callers retire the job first, so whoever observes the terminal
// state and resubmits finds the cache entry and the journal record written
// and the in-flight slot free — never a dedup onto the finished job.
func (j *localJob) finish(st JobStatus) {
	j.mu.Lock()
	j.status = st
	j.bump()
	j.mu.Unlock()
	j.cancel()
	close(j.done)
}

// publish appends one event to the job's log.
func (j *localJob) publish(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.bump()
	j.mu.Unlock()
}

// runJob executes one dequeued job on the calling worker.
func (l *Local) runJob(j *localJob) {
	j.mu.Lock()
	if j.status.State != JobQueued { // cancelled while waiting
		// Cancel already took the job off the JobsQueued gauge when it made
		// the job terminal; this dequeue only frees the channel slot.
		j.mu.Unlock()
		return
	}
	j.status.State = JobRunning
	j.bump()
	j.mu.Unlock()
	l.mu.Lock()
	l.metrics.JobsQueued--
	l.metrics.JobsRunning++
	l.mu.Unlock()

	design, results, err := l.execute(j)

	st := *j.snapshot()
	st.Design = design // set even on failure — mapping may have finished
	switch {
	case err == nil:
		st.State = JobDone
		st.Results = results
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		st.State = JobCancelled
		st.Error = err.Error()
	default:
		st.State = JobFailed
		st.Error = err.Error()
	}

	l.mu.Lock()
	l.metrics.JobsRunning--
	switch st.State {
	case JobDone:
		l.metrics.JobsDone++
		for _, r := range results {
			l.metrics.STAEvals += r.STAEvals
			l.metrics.CandEvals += r.CandEvals
			l.metrics.SimNs += r.SimTime.Nanoseconds()
		}
	case JobCancelled:
		l.metrics.JobsCancelled++
	default:
		l.metrics.JobsFailed++
	}
	l.mu.Unlock()
	if st.State == JobDone && l.cache != nil {
		if err := CachePut(l.cache, &CachedResult{Key: j.key, Design: design, Results: results}); err != nil {
			l.mu.Lock()
			l.metrics.StoreErrors++
			l.mu.Unlock()
		}
	}
	l.retire(j, st)
	j.finish(st)
}

// retire frees a terminal job's input (the parsed network and any inline
// BLIF text are dead weight once the run is over), journals its terminal
// status, releases its in-flight slot, and enforces the job-history bound.
// Call without l.mu held, before the terminal state is published.
func (l *Local) retire(j *localJob, st JobStatus) {
	j.net = nil
	j.spec.BLIF = ""
	if l.journal != nil {
		if err := l.journal.Append(JobRecord{Seq: j.seq, Key: j.key, Status: st}); err != nil {
			l.mu.Lock()
			l.metrics.StoreErrors++
			l.mu.Unlock()
		}
	}
	l.mu.Lock()
	// The job is terminal: later identical submissions must start fresh (or
	// hit the result cache), not adopt this carcass.
	if cur, ok := l.inflight[j.key]; ok && cur == st.ID {
		delete(l.inflight, j.key)
	}
	l.retired = append(l.retired, st.ID)
	for len(l.retired) > l.history {
		delete(l.jobs, l.retired[0])
		l.retired = l.retired[1:]
	}
	l.mu.Unlock()
}

// replayJournal reconstructs the previous life's terminal job history from
// the attached JobStore: each record becomes a queryable terminal job (empty
// event log — only the outcome survives a restart), the newest l.history of
// them are kept, and the submission counter resumes past the largest
// replayed sequence number so new IDs never collide with journaled ones.
// Called from NewLocal before the worker pool accepts jobs.
//
//lint:unguarded-ok construction: runs before the worker pool starts; no lock needed
func (l *Local) replayJournal() {
	type replayed struct {
		seq int64
		rec JobRecord
	}
	var recs []replayed
	err := l.journal.Replay(func(rec JobRecord) error {
		if rec.Status.ID == "" || !rec.Status.State.Terminal() {
			return nil // skip malformed or non-terminal records
		}
		recs = append(recs, replayed{seq: rec.Seq, rec: rec})
		if rec.Seq > l.order {
			l.order = rec.Seq
		}
		return nil
	})
	if err != nil {
		l.metrics.StoreErrors++
	}
	if len(recs) > l.history {
		recs = recs[len(recs)-l.history:]
	}
	for _, r := range recs {
		st := r.rec.Status
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		j := &localJob{
			key:    r.rec.Key,
			seq:    r.seq,
			ctx:    ctx,
			cancel: cancel,
			status: st,
			update: make(chan struct{}),
			done:   make(chan struct{}),
		}
		close(j.done)
		l.jobs[st.ID] = j
		l.retired = append(l.retired, st.ID)
	}
}

// execute runs the job on its warm-prep group's shared state: the mapped
// netlist, baseline timing engine and activity table are built once per group
// and every member only re-converges its own rails, under its per-job
// context. The first member to arrive builds; the EventMapped the build does
// not replay per job is synthesized onto each member's log, so every job's
// Watch stream starts the way a cache hit's does. Everything published —
// events, status results, cache entries — is Circuit-free: the job surface is
// transport-shaped, and in-process callers who want scaled netlists use Flow.
func (l *Local) execute(j *localJob) (*DesignInfo, []*FlowResult, error) {
	key, err := warmPrepKey(j.net, j.spec.Config)
	if err != nil {
		return nil, nil, err
	}
	entry := l.warmGet(key)
	built := false
	entry.once.Do(func() {
		built = true
		flow := New(FromConfig(j.spec.Config))
		entry.wd, entry.err = flow.PrepareWarm(context.Background(), j.net)
	})
	l.mu.Lock()
	if built {
		l.metrics.PrepBuilds++
	} else {
		l.metrics.PrepReuses++
	}
	l.mu.Unlock()
	if entry.err != nil {
		return nil, nil, entry.err
	}
	if err := j.ctx.Err(); err != nil {
		return nil, nil, err // cancelled while the group was being prepared
	}
	d := entry.wd.Design
	design := &DesignInfo{
		Name: d.Name, Gates: d.Circuit.NumLiveGates(),
		MinDelay: d.MinDelay, Tspec: d.Tspec, OrgPower: d.OrgPower,
	}
	j.publish(EventMapped{
		Circuit: design.Name, Gates: design.Gates,
		MinDelay: design.MinDelay, Tspec: design.Tspec, OrgPower: design.OrgPower,
	})
	results, err := entry.wd.RunAt(j.ctx, j.spec.Config.RailList(), j.spec.algorithms(), j.publish)
	if err != nil {
		return design, nil, err
	}
	return design, results, nil
}

// warmGet returns the job's warm-prep group, creating it (and evicting the
// least-recently-used group past the bound) as needed.
func (l *Local) warmGet(key string) *warmEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.warm[key]; ok {
		l.warmLRU.MoveToFront(el)
		return el.Value.(*warmEntry)
	}
	e := &warmEntry{key: key}
	l.warm[key] = l.warmLRU.PushFront(e)
	for l.warmLRU.Len() > warmGroups {
		oldest := l.warmLRU.Back()
		l.warmLRU.Remove(oldest)
		delete(l.warm, oldest.Value.(*warmEntry).key)
	}
	return e
}
