package dualvdd

import (
	"context"
	"fmt"
	"sync"

	"dualvdd/internal/logic"
)

// JobTable is the job lifecycle every Runner in this module shares: admission
// with content-addressed dedup and cache lookup, ID minting, the single
// terminal transition with its publication order, journal write-through and
// replay, the history bound, and the Status/Result/Watch/Cancel surface.
// Local and fleet.Coordinator embed one and differ only in how a job
// executes — in process on a bounded worker pool, or dispatched to a worker —
// which each supplies as the start function of Submit.
//
// A job moves queued → running → terminal, or is born terminal on a cache
// hit. Its terminal transition happens exactly once — the first caller of
// JobHandle.Finish (or a Cancel or Close that finds it still queued) wins —
// and it publishes in a fixed order: settle the gauges; put the result in
// the cache and add the evaluation totals; append the journal record;
// release the in-flight and admission slots; enforce the history bound and
// drop the parsed input; only then publish the terminal status. Whoever
// observes the terminal state and resubmits therefore gets a cache hit,
// never a dedup onto the finished job. Cache and journal I/O run outside the
// table lock.
type JobTable struct {
	cache   ResultCache // nil = caching disabled
	journal JobStore    // nil = no durability log
	history int

	mu       sync.Mutex
	jobs     map[JobID]*JobHandle // guarded by mu
	inflight map[string]JobID     // guarded by mu; content key → live job, for idempotent resubmission
	retired  []JobID              // guarded by mu; terminal jobs in completion order, oldest first
	order    int64                // guarded by mu
	closed   bool                 // guarded by mu
	metrics  Metrics              // guarded by mu
}

// JobHandle is one job's record in a JobTable: spec, content and group keys,
// the per-job context, lifecycle state and the append-only event log Watch
// replays. Runners drive it through Start, Publish and Finish.
type JobHandle struct {
	table   *JobTable
	spec    Job
	key     string
	group   string
	seq     int64
	net     *logic.Network // parsed once at admission; dropped at retirement
	release func()         // frees the admission gate's slot; a no-op when none

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	status  JobStatus     // guarded by mu
	settled bool          // guarded by mu; the terminal transition is claimed
	events  []Event       // guarded by mu
	update  chan struct{} // guarded by mu; closed and replaced on every append/state change
	done    chan struct{} // closed on terminal state; receiving needs no lock
}

// JobOutcome is how a runner's execution of a job ended.
type JobOutcome struct {
	State   JobState
	Error   string
	Design  *DesignInfo
	Results []*FlowResult
	// Reused marks results the executor served from its own cache: nothing
	// was computed, so the table's evaluation totals stay untouched.
	Reused bool
}

// NewJobTable builds a table over the given stores — a nil cache disables
// caching, a nil journal durability — keeping at most history terminal jobs
// queryable (minimum 1). A journal is replayed first: the previous life's
// terminal jobs become queryable history and ID allocation resumes past the
// largest replayed sequence number.
func NewJobTable(cache ResultCache, journal JobStore, history int) *JobTable {
	t := &JobTable{
		cache:    cache,
		journal:  journal,
		history:  max(history, 1),
		jobs:     make(map[JobID]*JobHandle),
		inflight: make(map[string]JobID),
	}
	if journal != nil {
		t.replayJournal()
	}
	return t
}

// Group returns the job's placement address (Job.GroupKey).
func (h *JobHandle) Group() string { return h.group }

// Spec returns the submitted job. Retirement drops its BLIF text, so a
// runner that needs the spec after admission copies it in its start
// function.
func (h *JobHandle) Spec() Job { return h.spec }

// Context returns the per-job context: detached from Submit's, bounded by
// the job's deadline budget when one was set, and cancelled by Cancel, by an
// expired Close, and at the terminal transition.
func (h *JobHandle) Context() context.Context { return h.ctx }

// Submit admits a job. It rejects an exhausted deadline budget, computes the
// content and group keys from one parse, and answers a resubmission of an
// in-flight job with the live job's ID. Only then does the runner's admit
// gate run (nil admits everything): a retried submission is never charged
// twice. The cache is consulted outside the lock and the dedup re-checked
// under it; a hit completes the job on the spot with the synthetic event
// history, and a miss calls start under the table lock to hand the job to
// its executor. The slot admit returns is released at the terminal
// transition, or at once when the job is not started.
func (t *JobTable) Submit(ctx context.Context, job Job, admit func() (release func(), err error),
	start func(*JobHandle) error) (JobID, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	budget, hasBudget := JobBudget(ctx)
	if hasBudget && budget <= 0 {
		t.mu.Lock()
		t.metrics.BudgetRejects++
		t.mu.Unlock()
		return "", ErrBudgetExhausted
	}
	key, group, net, err := job.keys()
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	prior, ok, err := t.dedupLocked(key)
	t.mu.Unlock()
	if ok || err != nil {
		return prior, err
	}
	release := func() {}
	if admit != nil {
		r, err := admit()
		if err != nil {
			return "", err
		}
		release = r
	}

	// The cache lookup happens outside t.mu: a disk-backed ResultCache does
	// I/O, and the interface carries its own synchronization. The fallible
	// surface is preferred so backend read errors land on StoreErrors instead
	// of vanishing into the miss count.
	var entry *CachedResult
	if t.cache != nil {
		var cacheErr error
		entry, _, cacheErr = CacheGet(t.cache, key)
		if cacheErr != nil {
			t.mu.Lock()
			t.metrics.StoreErrors++
			t.mu.Unlock()
		}
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
	h := &JobHandle{
		table: t, spec: job, key: key, group: group, net: net, release: release,
		ctx: jctx, cancel: jcancel,
		settled: entry != nil, // a hit is born terminal
		update:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	reject := func(id JobID, err error) (JobID, error) {
		jcancel()
		release()
		return id, err
	}

	t.mu.Lock()
	// Re-check under the lock that publishes in-flight jobs: a concurrent
	// twin may have won the race while the cache lookup ran unlocked.
	if prior, ok, err := t.dedupLocked(key); ok || err != nil {
		t.mu.Unlock()
		return reject(prior, err)
	}
	t.order++
	h.seq = t.order
	id := JobID(fmt.Sprintf("job-%06d-%s", h.seq, key[:8]))
	h.status = JobStatus{ID: id, State: JobQueued}
	if entry != nil {
		t.metrics.CacheHits++
		t.metrics.JobsDone++
		t.jobs[id] = h
		t.mu.Unlock()
		t.completeFromCache(h, entry)
		return id, nil
	}
	t.metrics.CacheMisses++
	if err := start(h); err != nil {
		t.mu.Unlock()
		return reject("", err)
	}
	t.metrics.JobsQueued++
	if job.Config.NumRails() > 2 {
		t.metrics.MultiRailJobs++
	}
	t.jobs[id] = h
	t.inflight[key] = id
	t.mu.Unlock()
	return id, nil
}

// dedupLocked answers a submission whose content address matches a live
// job with that job's ID (ok), and refuses every submission once the table
// closed. The caller holds mu.
//
// Submission is idempotent on the job's content address while a matching job
// is in flight: a retried POST whose first attempt landed (only the response
// died in transit) is answered with the live job's ID instead of queueing —
// and computing — a duplicate.
func (t *JobTable) dedupLocked(key string) (JobID, bool, error) {
	if t.closed {
		return "", false, ErrClosed
	}
	if prior, ok := t.inflight[key]; ok {
		t.metrics.SubmitDedups++
		return prior, true, nil
	}
	return "", false, nil
}

// completeFromCache finishes a job with another run's results, replaying the
// synthetic event history (mapped, then one result per algorithm) so Watch
// behaves the same for hits and misses.
func (t *JobTable) completeFromCache(h *JobHandle, entry *CachedResult) {
	design := *entry.Design
	h.mu.Lock()
	st := h.status
	h.events = append(h.events, EventMapped{
		Circuit: design.Name, Gates: design.Gates,
		MinDelay: design.MinDelay, Tspec: design.Tspec, OrgPower: design.OrgPower,
	})
	for _, res := range entry.Results {
		h.events = append(h.events, EventResult{Circuit: design.Name, Result: res})
	}
	h.mu.Unlock()
	st.State = JobDone
	st.Cached = true
	st.Design = &design
	st.Results = entry.Results
	t.retire(h, st)
	h.publishTerminal(st) // wakes a Watch that attached between the map insert and here
}

// Start moves a queued job to running; on a job already running — a
// re-dispatch — it changes nothing. It fails, and the runner must not
// execute the job, once the terminal transition is claimed: a job cancelled
// while it waited is never started.
func (h *JobHandle) Start() bool {
	h.mu.Lock()
	settled, queued := h.settled, h.status.State == JobQueued
	if !settled && queued {
		h.status.State = JobRunning
		h.bump()
	}
	h.mu.Unlock()
	if !settled && queued {
		t := h.table
		t.mu.Lock()
		t.metrics.JobsQueued--
		t.metrics.JobsRunning++
		t.mu.Unlock()
	}
	return !settled
}

// Publish appends one event to the job's log and wakes its watchers.
func (h *JobHandle) Publish(ev Event) {
	h.mu.Lock()
	h.events = append(h.events, ev)
	h.bump()
	h.mu.Unlock()
}

// Finish is the job's terminal transition. The first caller wins and gets
// true; every later call — a runner finishing a job Cancel already settled,
// say — is a no-op returning false.
func (h *JobHandle) Finish(o JobOutcome) bool {
	h.mu.Lock()
	if h.settled {
		h.mu.Unlock()
		return false
	}
	h.settled = true
	from := h.status.State
	h.mu.Unlock()
	h.table.settle(h, from, o)
	return true
}

// bump wakes Watch subscribers. The caller holds mu.
func (h *JobHandle) bump() {
	close(h.update)
	h.update = make(chan struct{})
}

// settle runs a claimed terminal transition in publication order; from is
// the state the job held when the transition was claimed.
func (t *JobTable) settle(h *JobHandle, from JobState, o JobOutcome) {
	h.mu.Lock()
	st := h.status
	h.mu.Unlock()
	st.State, st.Error, st.Design = o.State, o.Error, o.Design
	if o.State == JobDone {
		st.Results = o.Results
	}

	t.mu.Lock()
	if from == JobRunning {
		t.metrics.JobsRunning--
	} else {
		t.metrics.JobsQueued--
	}
	switch o.State {
	case JobDone:
		t.metrics.JobsDone++
		if !o.Reused {
			for _, r := range o.Results {
				t.metrics.STAEvals += r.STAEvals
				t.metrics.CandEvals += r.CandEvals
				t.metrics.SimNs += r.SimTime.Nanoseconds()
			}
		}
	case JobCancelled:
		t.metrics.JobsCancelled++
	default:
		t.metrics.JobsFailed++
	}
	t.mu.Unlock()
	if o.State == JobDone && t.cache != nil {
		if err := CachePut(t.cache, &CachedResult{Key: h.key, Design: o.Design, Results: o.Results}); err != nil {
			t.mu.Lock()
			t.metrics.StoreErrors++
			t.mu.Unlock()
		}
	}
	t.retire(h, st)
	h.publishTerminal(st)
}

// retire journals a terminal job, releases its in-flight and admission
// slots, drops its input (the parsed network and any inline BLIF text are
// dead weight once the run is over) and enforces the history bound. It runs
// before the terminal state is published.
func (t *JobTable) retire(h *JobHandle, st JobStatus) {
	if t.journal != nil {
		if err := t.journal.Append(JobRecord{Seq: h.seq, Key: h.key, Status: st}); err != nil {
			t.mu.Lock()
			t.metrics.StoreErrors++
			t.mu.Unlock()
		}
	}
	h.release()
	t.mu.Lock()
	// The job is terminal: later identical submissions must start fresh (or
	// hit the result cache), not adopt this carcass.
	if cur, ok := t.inflight[h.key]; ok && cur == st.ID {
		delete(t.inflight, h.key)
	}
	h.net = nil
	h.spec.BLIF = ""
	t.retired = append(t.retired, st.ID)
	for len(t.retired) > t.history {
		delete(t.jobs, t.retired[0])
		t.retired = t.retired[1:]
	}
	t.mu.Unlock()
}

// publishTerminal publishes a terminal status: watchers wake, Result returns
// and the per-job context is released.
func (h *JobHandle) publishTerminal(st JobStatus) {
	h.mu.Lock()
	h.status = st
	h.bump()
	h.mu.Unlock()
	h.cancel()
	close(h.done)
}

// replayJournal reconstructs the previous life's terminal job history from
// the journal: each record becomes a queryable terminal job (empty event log
// — only the outcome survives a restart), the newest t.history of them are
// kept, and the submission counter resumes past the largest replayed
// sequence number so new IDs never collide with journaled ones.
//
//lint:unguarded-ok construction: runs before the table is shared
func (t *JobTable) replayJournal() {
	var recs []JobRecord
	err := t.journal.Replay(func(rec JobRecord) error {
		if rec.Status.ID == "" || !rec.Status.State.Terminal() {
			return nil // skip malformed or non-terminal records
		}
		recs = append(recs, rec)
		t.order = max(t.order, rec.Seq)
		return nil
	})
	if err != nil {
		t.metrics.StoreErrors++
	}
	if len(recs) > t.history {
		recs = recs[len(recs)-t.history:]
	}
	for _, rec := range recs {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		h := &JobHandle{
			table: t, key: rec.Key, seq: rec.Seq, release: func() {},
			ctx: ctx, cancel: cancel,
			status: rec.Status, settled: true,
			update: make(chan struct{}),
			done:   make(chan struct{}),
		}
		close(h.done)
		t.jobs[rec.Status.ID] = h
		t.retired = append(t.retired, rec.Status.ID)
	}
}

// find looks a job up.
func (t *JobTable) find(id JobID) (*JobHandle, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrJobNotFound, id)
	}
	return h, nil
}

// snapshot copies the job's current status. Results and Design are
// write-once; sharing the slice is safe because terminal statuses are
// immutable.
func (h *JobHandle) snapshot() *JobStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.status
	return &st
}

// Status returns a snapshot of the job. See Runner.
func (t *JobTable) Status(ctx context.Context, id JobID) (*JobStatus, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h, err := t.find(id)
	if err != nil {
		return nil, err
	}
	return h.snapshot(), nil
}

// Result blocks until the job is terminal. See Runner.
func (t *JobTable) Result(ctx context.Context, id JobID) (*JobStatus, error) {
	h, err := t.find(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-h.done:
		return h.snapshot(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Watch streams the job's events: full replay, then live until terminal.
// See Runner.
func (t *JobTable) Watch(ctx context.Context, id JobID) (<-chan Event, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h, err := t.find(id)
	if err != nil {
		return nil, err
	}
	out := make(chan Event)
	go func() {
		defer close(out)
		next := 0
		for {
			h.mu.Lock()
			pending := h.events[next:]
			next = len(h.events)
			update := h.update
			terminal := h.status.State.Terminal()
			h.mu.Unlock()
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

// Cancel stops a queued or running job. See Runner. A queued job is
// terminal at once — the executor that later reaches it finds Start
// failing — and a running one is stopped through its per-job context, its
// runner recording the terminal state. Cancelling a terminal job is a no-op.
func (t *JobTable) Cancel(ctx context.Context, id JobID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	h, err := t.find(id)
	if err != nil {
		return err
	}
	h.stop()
	return nil
}

// stop cancels the job's context and, while the job is still queued,
// finishes it as cancelled.
func (h *JobHandle) stop() {
	h.cancel()
	h.mu.Lock()
	queued := !h.settled && h.status.State == JobQueued
	h.settled = h.settled || queued
	h.mu.Unlock()
	if queued {
		h.table.settle(h, JobQueued, JobOutcome{State: JobCancelled, Error: context.Canceled.Error()})
	}
}

// Metrics returns the table's counters snapshot, with the cache gauges read
// from the cache itself.
func (t *JobTable) Metrics() Metrics {
	t.mu.Lock()
	m := t.metrics
	t.mu.Unlock()
	if t.cache != nil {
		m.CacheEntries = t.cache.Len()
		m.CacheBytes = t.cache.Bytes()
		if d, ok := t.cache.(interface{ Degraded() bool }); ok && d.Degraded() {
			m.StoreDegraded = 1
		}
	}
	return m
}

// Close is the shared body of a runner's Close. It stops admission — Submit
// fails with ErrClosed from here on — and on the first call runs halt, which
// tells the runner's executors to drain. It then waits for idle, the
// runner's signal that every executor has exited. The ctx bounds the wait:
// when it expires first, queued jobs finish as cancelled exactly as Cancel
// finishes them, running jobs have their contexts cancelled, and Close
// returns ctx.Err() once the runner is idle.
func (t *JobTable) Close(ctx context.Context, halt func(), idle <-chan struct{}) error {
	t.mu.Lock()
	first := !t.closed
	t.closed = true
	t.mu.Unlock()
	if first {
		halt()
	}
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
	}
	t.mu.Lock()
	jobs := make([]*JobHandle, 0, len(t.jobs))
	//lint:nondeterministic-ok shutdown cancels every job; cancellation order is immaterial
	for _, h := range t.jobs {
		jobs = append(jobs, h)
	}
	t.mu.Unlock()
	for _, h := range jobs {
		h.stop()
	}
	<-idle
	return ctx.Err()
}
