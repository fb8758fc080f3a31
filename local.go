package dualvdd

import (
	"container/list"
	"context"
	"errors"
	"sync"
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
// The job lifecycle — admission, dedup, cache and journal, Status, Result,
// Watch and Cancel — is the embedded JobTable; Local adds the worker pool
// and the warm groups.
//
// A Local is safe for concurrent use. Close drains it; after Close, Submit
// fails with ErrClosed. Terminal jobs stay queryable up to the
// LocalJobHistory bound, then are forgotten — a long-lived service holds a
// bounded amount of state no matter how many jobs pass through.
type Local struct {
	*JobTable

	queue      chan *JobHandle
	workers    int
	cacheLimit int
	history    int

	// cache is the content-addressed result store (nil = caching disabled)
	// and journal the optional durability log of terminal jobs, both handed
	// to the job table. They default to the in-memory implementations;
	// LocalResultCache / LocalJobStore swap in the disk-backed ones from
	// internal/store, which is what makes a restarted service resume instead
	// of recompute.
	cache   ResultCache
	journal JobStore

	idle chan struct{} // closed when the worker pool exits; receiving needs no lock

	mu         sync.Mutex
	warm       map[string]*list.Element // guarded by mu
	warmLRU    *list.List               // guarded by mu; front = most recent; values are *warmEntry
	prepBuilds int64                    // guarded by mu
	prepReuses int64                    // guarded by mu
}

// warmGroups bounds both the warm-prep groups a Local keeps resident and the
// points — hence per-circuit chains — Sweep.Run keeps in flight by default,
// so a default sweep never evicts a group its chains still walk.
const warmGroups = 16

// warmEntry is one warm-prep group: every job whose Job.GroupKey matches
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
			l.queue = make(chan *JobHandle, n)
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
		idle:       make(chan struct{}),
		warm:       make(map[string]*list.Element),
		warmLRU:    list.New(),
	}
	for _, opt := range opts {
		opt(l)
	}
	if l.queue == nil {
		l.queue = make(chan *JobHandle, 64)
	}
	if l.cache == nil && l.cacheLimit > 0 {
		l.cache = NewMemoryCache(l.cacheLimit)
	}
	l.JobTable = NewJobTable(l.cache, l.journal, l.history)
	// The pool is Batch fanning out n infinite worker loops: each pool
	// goroutine takes exactly one loop (a loop only returns at drain), so
	// the service reuses the one deterministic fan-out primitive the
	// repository already trusts instead of a second hand-rolled pool.
	go func() {
		defer close(l.idle)
		_ = Batch{Workers: l.workers}.Each(context.Background(), l.workers,
			func(context.Context, int) error {
				for h := range l.queue {
					l.runJob(h)
				}
				return nil
			})
	}()
	return l
}

var _ Runner = (*Local)(nil)
var _ MetricsProvider = (*Local)(nil)

// Submit validates the job, answers it from the cache on a content hit, and
// otherwise enqueues it; a full queue rejects it with ErrQueueFull. See
// Runner.
func (l *Local) Submit(ctx context.Context, job Job) (JobID, error) {
	return l.JobTable.Submit(ctx, job, nil, func(h *JobHandle) error {
		select {
		case l.queue <- h:
			return nil
		default:
			return ErrQueueFull
		}
	})
}

// Metrics returns a counters snapshot.
func (l *Local) Metrics() Metrics {
	m := l.JobTable.Metrics()
	l.mu.Lock()
	m.PrepBuilds, m.PrepReuses, m.PrepGroups = l.prepBuilds, l.prepReuses, l.warmLRU.Len()
	l.mu.Unlock()
	return m
}

// Close stops accepting jobs and drains the queue: queued and running jobs
// finish normally. The ctx bounds the wait — when it expires, queued jobs
// are cancelled on the spot, running jobs through their contexts, and Close
// waits (briefly) for the pool to exit, returning ctx.Err().
func (l *Local) Close(ctx context.Context) error {
	return l.JobTable.Close(ctx, func() { close(l.queue) }, l.idle)
}

// runJob executes one dequeued job on the calling worker. A job cancelled
// while it waited fails Start and is skipped.
func (l *Local) runJob(h *JobHandle) {
	if !h.Start() {
		return
	}
	o := JobOutcome{State: JobDone}
	var err error
	o.Design, o.Results, err = l.execute(h)
	if err != nil {
		o.State, o.Error = JobFailed, err.Error()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			o.State = JobCancelled
		}
	}
	h.Finish(o)
}

// execute runs the job on its warm-prep group's shared state: the mapped
// netlist, baseline timing engine and activity table are built once per group
// and every member only re-converges its own rails, under its per-job
// context. The first member to arrive builds; the EventMapped the build does
// not replay per job is synthesized onto each member's log, so every job's
// Watch stream starts the way a cache hit's does. Everything published —
// events, status results, cache entries — is Circuit-free: the job surface is
// transport-shaped, and in-process callers who want scaled netlists use Flow.
func (l *Local) execute(h *JobHandle) (*DesignInfo, []*FlowResult, error) {
	entry := l.warmGet(h.group)
	built := false
	entry.once.Do(func() {
		built = true
		flow := New(FromConfig(h.spec.Config))
		entry.wd, entry.err = flow.PrepareWarm(context.Background(), h.net)
	})
	l.mu.Lock()
	if built {
		l.prepBuilds++
	} else {
		l.prepReuses++
	}
	l.mu.Unlock()
	if entry.err != nil {
		return nil, nil, entry.err
	}
	if err := h.ctx.Err(); err != nil {
		return nil, nil, err // cancelled while the group was being prepared
	}
	d := entry.wd.Design
	design := &DesignInfo{
		Name: d.Name, Gates: d.Circuit.NumLiveGates(),
		MinDelay: d.MinDelay, Tspec: d.Tspec, OrgPower: d.OrgPower,
	}
	h.Publish(EventMapped{
		Circuit: design.Name, Gates: design.Gates,
		MinDelay: design.MinDelay, Tspec: design.Tspec, OrgPower: design.OrgPower,
	})
	results, err := entry.wd.RunAt(h.ctx, h.spec.Config.RailList(), h.spec.algorithms(), h.Publish)
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
