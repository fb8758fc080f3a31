package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dualvdd"
	"dualvdd/client"
	"dualvdd/fleet"
	"dualvdd/internal/chaos"
	"dualvdd/internal/store"
)

// modelRunner is what the model test drives: a Runner with counters and a
// Close, which Local and fleet.Coordinator both are.
type modelRunner interface {
	dualvdd.Runner
	dualvdd.MetricsProvider
	Close(ctx context.Context) error
}

// modelLife opens one life of a runner on its shape's persistent stores; the
// returned func releases what the life opened once the runner is closed.
type modelLife func(t *testing.T) (modelRunner, func())

// modelHistory is the history bound every runner in the model test gets:
// small, so eviction happens inside a short op sequence.
const modelHistory = 3

// modelJobs is the job pool: one small generated circuit under distinct
// seeds, so every entry has its own content address and a run takes a few
// milliseconds — long enough that a duplicate submission can land while its
// twin is still in flight.
func modelJobs() []dualvdd.Job {
	var b strings.Builder
	b.WriteString(".model m\n.inputs")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, " i%d", i)
	}
	b.WriteString("\n.outputs o0 o1\n")
	prev := []string{"i0", "i1", "i2", "i3", "i4", "i5", "i6", "i7"}
	for n := 0; n < 48; n++ {
		x, y := prev[len(prev)-1-n%5], prev[len(prev)-2-n%7]
		out := fmt.Sprintf("n%d", n)
		if n == 46 || n == 47 {
			out = fmt.Sprintf("o%d", n-46)
		}
		fmt.Fprintf(&b, ".names %s %s %s\n%s 1\n", x, y, out, []string{"11", "10", "01"}[n%3])
		prev = append(prev, out)
	}
	b.WriteString(".end\n")
	jobs := make([]dualvdd.Job, 12)
	for i := range jobs {
		jobs[i] = dualvdd.BLIFJob(b.String(), dualvdd.WithSimWords(64), dualvdd.WithSeed(uint64(i+1)))
	}
	return jobs
}

// modelJob is the reference model's record of one accepted job ID.
type modelJob struct {
	id       dualvdd.JobID
	job      int                // index into the job pool
	final    *dualvdd.JobStatus // observed terminal status; nil until seen
	replayed bool               // restored from the journal: its event log is empty
}

// refModel is the small reference model each run is checked against.
type refModel struct {
	t      *testing.T
	ctx    context.Context
	pool   []dualvdd.Job
	r      modelRunner
	jobs   []*modelJob
	byID   map[dualvdd.JobID]*modelJob
	live   map[int]*modelJob // pool index → accepted job whose terminal state is unseen
	cached map[int]bool      // pool index → a run of it was seen done
	seen   map[int]bool      // pool index → submitted in some life
	maxSeq int64

	// This life's expected counters.
	accepted, hits, dedups int
	replayedN              int

	totalDedups int // across lives, for the run summary
}

func jobSeq(t *testing.T, id dualvdd.JobID) int64 {
	t.Helper()
	parts := strings.SplitN(string(id), "-", 3)
	if len(parts) != 3 || parts[0] != "job" {
		t.Fatalf("malformed job ID %q", id)
	}
	n, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		t.Fatalf("malformed job ID %q: %v", id, err)
	}
	return n
}

// observe records a terminal status for a job and checks it against any
// earlier observation: terminal statuses never change.
func (m *refModel) observe(mj *modelJob, st *dualvdd.JobStatus) {
	m.t.Helper()
	if !st.State.Terminal() {
		m.t.Fatalf("%s: expected a terminal status, got %s", mj.id, st.State)
	}
	if mj.final != nil {
		if st.State != mj.final.State || st.Cached != mj.final.Cached || len(st.Results) != len(mj.final.Results) {
			m.t.Fatalf("%s: terminal status changed from %s/cached=%v to %s/cached=%v",
				mj.id, mj.final.State, mj.final.Cached, st.State, st.Cached)
		}
	}
	mj.final = st
	if st.State == dualvdd.JobDone {
		m.cached[mj.job] = true
	}
	if m.live[mj.job] == mj {
		delete(m.live, mj.job)
	}
}

// gone handles ErrJobNotFound for a known ID: only a terminal job can have
// been evicted, so the model stops treating it as live.
func (m *refModel) gone(mj *modelJob, err error) {
	m.t.Helper()
	if !errors.Is(err, dualvdd.ErrJobNotFound) {
		m.t.Fatalf("%s: %v", mj.id, err)
	}
	if m.live[mj.job] == mj {
		delete(m.live, mj.job)
	}
}

func (m *refModel) submit(i int) dualvdd.JobID {
	m.t.Helper()
	id, err := m.r.Submit(m.ctx, m.pool[i])
	if err != nil {
		m.t.Fatalf("submit job %d: %v", i, err)
	}
	if mj, ok := m.byID[id]; ok {
		// An existing ID is a dedup, and only the live job of this content
		// address may absorb it — never a finished job, never another key.
		if m.live[i] != mj {
			m.t.Fatalf("submit job %d returned %s, which is not its live job", i, id)
		}
		m.dedups++
		m.totalDedups++
		return id
	}
	seq := jobSeq(m.t, id)
	if seq <= m.maxSeq {
		m.t.Fatalf("new ID %s does not come after sequence %d", id, m.maxSeq)
	}
	m.maxSeq = seq
	// A fresh ID while a twin was live means the twin finished in between:
	// its in-flight slot is free, and only the publication of its terminal
	// state — the last step of the transition — may still be under way.
	if prev := m.live[i]; prev != nil {
		rctx, cancel := context.WithTimeout(m.ctx, 10*time.Second)
		st, err := m.r.Result(rctx, prev.id)
		cancel()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			m.t.Fatalf("submit job %d started %s while %s was still in flight", i, id, prev.id)
		case err != nil:
			m.gone(prev, err)
		default:
			m.observe(prev, st)
		}
	}
	mj := &modelJob{id: id, job: i}
	m.jobs = append(m.jobs, mj)
	m.byID[id] = mj
	m.accepted++
	st, err := m.r.Status(m.ctx, id)
	if err != nil {
		m.t.Fatalf("status of fresh %s: %v", id, err)
	}
	if m.cached[i] && !(st.Cached && st.State == dualvdd.JobDone) {
		m.t.Fatalf("job %d was done before, but resubmission %s is %s/cached=%v", i, id, st.State, st.Cached)
	}
	if st.Cached {
		if !m.seen[i] {
			m.t.Fatalf("job %d answered from the cache before it was ever submitted", i)
		}
		m.hits++
		m.observe(mj, st)
	} else {
		m.live[i] = mj
	}
	m.seen[i] = true
	return id
}

// pick chooses a known job ID.
func (m *refModel) pick(src *chaos.Source) *modelJob {
	if len(m.jobs) == 0 {
		return nil
	}
	return m.jobs[src.Intn(len(m.jobs))]
}

func (m *refModel) cancel(mj *modelJob) {
	m.t.Helper()
	if err := m.r.Cancel(m.ctx, mj.id); err != nil {
		m.gone(mj, err)
		return
	}
	st, err := m.r.Result(m.ctx, mj.id)
	if err != nil {
		m.gone(mj, err)
		return
	}
	// Cancel races the run: either outcome is right, and a job already
	// terminal keeps its state (observe checks that).
	if mj.final == nil && st.State != dualvdd.JobDone && st.State != dualvdd.JobCancelled {
		m.t.Fatalf("%s: cancel ended it %s, want done or cancelled", mj.id, st.State)
	}
	m.observe(mj, st)
}

func (m *refModel) result(mj *modelJob) {
	m.t.Helper()
	st, err := m.r.Result(m.ctx, mj.id)
	if err != nil {
		m.gone(mj, err)
		return
	}
	m.observe(mj, st)
}

func (m *refModel) watch(mj *modelJob) {
	m.t.Helper()
	ctx, cancel := context.WithTimeout(m.ctx, 30*time.Second)
	defer cancel()
	events, err := m.r.Watch(ctx, mj.id)
	if err != nil {
		m.gone(mj, err)
		return
	}
	results := 0
	total := 0
	for ev := range events {
		total++
		if dualvdd.EventKind(ev) == dualvdd.EventKindResult {
			results++
		}
	}
	if ctx.Err() != nil {
		m.t.Fatalf("%s: watch never reached a terminal state", mj.id)
	}
	st, err := m.r.Status(m.ctx, mj.id)
	if err != nil {
		m.gone(mj, err) // evicted by a later retirement since the stream closed
		return
	}
	if !st.State.Terminal() {
		m.t.Fatalf("%s: watch replay ended at %s, not a terminal state", mj.id, st.State)
	}
	switch {
	case mj.replayed:
		if total != 0 {
			m.t.Fatalf("%s: replayed job streamed %d events, want an empty log", mj.id, total)
		}
	case st.State == dualvdd.JobDone && results != len(st.Results):
		m.t.Fatalf("%s: watch streamed %d results for a job with %d", mj.id, results, len(st.Results))
	}
	m.observe(mj, st)
}

// quiesce waits every live job out and checks the invariants that hold
// whenever nothing is queued or running.
func (m *refModel) quiesce() {
	m.t.Helper()
	for _, mj := range m.jobs {
		if mj.final == nil && m.live[mj.job] == mj {
			m.result(mj)
		}
	}
	met := m.r.Metrics()
	if met.JobsQueued != 0 || met.JobsRunning != 0 {
		m.t.Fatalf("quiescent runner reports %d queued, %d running", met.JobsQueued, met.JobsRunning)
	}
	if met.PointsInFlight != met.JobsQueued+met.JobsRunning {
		m.t.Fatalf("PointsInFlight %d != queued %d + running %d", met.PointsInFlight, met.JobsQueued, met.JobsRunning)
	}
	if got := met.JobsDone + met.JobsFailed + met.JobsCancelled; got != int64(m.accepted) {
		m.t.Fatalf("%d terminal jobs counted, %d accepted", got, m.accepted)
	}
	if met.CacheHits != int64(m.hits) || met.CacheMisses != int64(m.accepted-m.hits) {
		m.t.Fatalf("cache hits/misses %d/%d, model %d/%d", met.CacheHits, met.CacheMisses, m.hits, m.accepted-m.hits)
	}
	if met.SubmitDedups != int64(m.dedups) {
		m.t.Fatalf("SubmitDedups %d, model %d", met.SubmitDedups, m.dedups)
	}
	// Eviction happens exactly at the bound: with everything terminal, the
	// runner answers for the newest modelHistory jobs of its life, no more
	// and no fewer.
	want := min(modelHistory, m.replayedN+m.accepted)
	if got := m.visible(); got != want {
		m.t.Fatalf("%d terminal jobs queryable, want %d (history bound %d)", got, want, modelHistory)
	}
}

// visible counts the known IDs the runner still answers for.
func (m *refModel) visible() int {
	m.t.Helper()
	n := 0
	for _, mj := range m.jobs {
		if _, err := m.r.Status(m.ctx, mj.id); err == nil {
			n++
		} else if !errors.Is(err, dualvdd.ErrJobNotFound) {
			m.t.Fatal(err)
		}
	}
	return n
}

// restart closes the runner — Close drains, so every job ends terminal — and
// opens a new life on the same stores. The new life answers for the newest
// modelHistory journaled jobs with their recorded terminal statuses.
func (m *refModel) restart(open modelLife, closeStores func()) func() {
	m.t.Helper()
	old := m.r
	cctx, cancel := context.WithTimeout(m.ctx, time.Minute)
	defer cancel()
	if err := old.Close(cctx); err != nil {
		m.t.Fatalf("close: %v", err)
	}
	for _, mj := range m.jobs {
		if st, err := old.Status(m.ctx, mj.id); err == nil {
			m.observe(mj, st)
		}
	}
	closeStores()
	m.live = map[int]*modelJob{}
	r, next := open(m.t)
	m.r = r
	m.accepted, m.hits, m.dedups, m.replayedN = 0, 0, 0, 0
	for _, mj := range m.jobs {
		mj.replayed = false
		st, err := r.Status(m.ctx, mj.id)
		if err != nil {
			if !errors.Is(err, dualvdd.ErrJobNotFound) {
				m.t.Fatal(err)
			}
			continue
		}
		m.observe(mj, st) // replayed IDs keep their terminal status
		mj.replayed = true
		m.replayedN++
	}
	if want := min(modelHistory, len(m.jobs)); m.replayedN != want {
		m.t.Fatalf("restart replayed %d jobs, want %d", m.replayedN, want)
	}
	return next
}

// TestChaosRunnerModel is the model-based test of the job lifecycle: seeded
// random sequences of Submit, duplicate Submit, Cancel, Result, Watch and
// restart on the same stores, run against Local on memory and disk stores
// and a Coordinator over one and two workers, each checked step by step
// against a small reference model — dedup returns the live ID, a job once
// done makes every resubmission a cache hit, replayed IDs keep their
// terminal status, new IDs come after every replayed sequence number,
// eviction happens exactly at the history bound, and a Watch replay ends at
// the terminal state.
func TestChaosRunnerModel(t *testing.T) {
	seed := chaosSeed(t)
	memoryLocal := func(t *testing.T) modelLife {
		cache, journal := dualvdd.NewMemoryCache(64), dualvdd.NewMemoryJournal()
		return func(*testing.T) (modelRunner, func()) {
			return dualvdd.NewLocal(dualvdd.LocalResultCache(cache), dualvdd.LocalJobStore(journal),
				dualvdd.LocalJobHistory(modelHistory)), func() {}
		}
	}
	diskLocal := func(t *testing.T) modelLife {
		dir := t.TempDir()
		return func(t *testing.T) (modelRunner, func()) {
			cas, err := store.OpenCAS(filepath.Join(dir, "cas"))
			if err != nil {
				t.Fatal(err)
			}
			journal, err := store.OpenJournal(filepath.Join(dir, "jobs.log"))
			if err != nil {
				t.Fatal(err)
			}
			l := dualvdd.NewLocal(dualvdd.LocalResultCache(cas), dualvdd.LocalJobStore(journal),
				dualvdd.LocalJobHistory(modelHistory))
			return l, func() {
				if err := journal.Close(); err != nil {
					t.Error(err)
				}
			}
		}
	}
	coordinator := func(workers int) func(t *testing.T) modelLife {
		return func(t *testing.T) modelLife {
			ws := make([]*chaosWorker, workers)
			for i := range ws {
				ws[i] = newChaosWorker(t)
			}
			cache, journal := dualvdd.NewMemoryCache(64), dualvdd.NewMemoryJournal()
			return func(t *testing.T) (modelRunner, func()) {
				co, err := fleet.New(workerURLs(ws), fleet.WithDialer(fastModelDial),
					fleet.WithResultCache(cache), fleet.WithJobStore(journal),
					fleet.WithHistory(modelHistory))
				if err != nil {
					t.Fatal(err)
				}
				return co, func() {}
			}
		}
	}
	shapes := []struct {
		name  string
		build func(t *testing.T) modelLife
	}{
		{"local-memory", memoryLocal},
		{"local-disk", diskLocal},
		{"coordinator-1", coordinator(1)},
		{"coordinator-2", coordinator(2)},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			src := chaos.NewSource(seed).Fork("model:" + shape.name)
			open := shape.build(t)
			r, closeStores := open(t)
			m := &refModel{
				t: t, ctx: ctx, pool: modelJobs(), r: r,
				byID: map[dualvdd.JobID]*modelJob{}, live: map[int]*modelJob{},
				cached: map[int]bool{}, seen: map[int]bool{},
			}
			defer func() {
				cctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				_ = m.r.Close(cctx)
				closeStores()
			}()
			const ops = 150
			var trace []string
			defer func() {
				if t.Failed() {
					t.Logf("op trace: %s", strings.Join(trace, " "))
				}
			}()
			for op := 0; op < ops; op++ {
				switch roll := src.Intn(100); {
				case roll < 30:
					i := src.Intn(len(m.pool))
					trace = append(trace, fmt.Sprintf("submit(%d)", i))
					m.submit(i)
				case roll < 45:
					i := src.Intn(len(m.pool))
					trace = append(trace, fmt.Sprintf("dup(%d)", i))
					m.submit(i)
					m.submit(i)
				case roll < 60:
					if mj := m.pick(src); mj != nil {
						trace = append(trace, "cancel("+string(mj.id)+")")
						m.cancel(mj)
					}
				case roll < 72:
					if mj := m.pick(src); mj != nil {
						trace = append(trace, "result("+string(mj.id)+")")
						m.result(mj)
					}
				case roll < 84:
					if mj := m.pick(src); mj != nil {
						trace = append(trace, "watch("+string(mj.id)+")")
						m.watch(mj)
					}
				case roll < 96:
					trace = append(trace, "quiesce")
					m.quiesce()
				default:
					trace = append(trace, "restart")
					m.quiesce()
					closeStores = m.restart(open, closeStores)
					m.quiesce()
				}
			}
			states := map[dualvdd.JobState]int{}
			for _, mj := range m.jobs {
				if mj.final != nil {
					states[mj.final.State]++
				}
			}
			t.Logf("%d jobs accepted across lives, terminal states %v, %d submissions deduped", len(m.jobs), states, m.totalDedups)
			trace = append(trace, "quiesce", "restart")
			m.quiesce()
			closeStores = m.restart(open, closeStores)
			m.quiesce()
		})
	}
}

// fastModelDial is the coordinator's worker dialer in the model test.
func fastModelDial(url string) (fleet.WorkerClient, error) {
	return client.New(url, client.WithRetry(2, 10*time.Millisecond, 50*time.Millisecond))
}
