package chaos_test

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"dualvdd"
	"dualvdd/fleet"
	"dualvdd/internal/chaos"
	"dualvdd/internal/store"
)

// TestChaosSlowStoreResubmitHitsCache holds every runner to its publication
// order: a job's terminal state is published only after its result is in the
// cache, its record in the journal and its in-flight slot released. A
// store-latency decorator holds every cache and journal write open, so a
// runner that published first would answer an immediate identical
// resubmission by deduping onto the finished job — Cached=false and a
// SubmitDedup instead of a cache hit — on every run, not only under an
// unlucky schedule.
func TestChaosSlowStoreResubmitHitsCache(t *testing.T) {
	slow := chaos.StoreFaults{Latency: 20 * time.Millisecond, PLatency: 1}
	src := chaos.NewSource(chaosSeed(t))
	slowCache := func(inner dualvdd.ResultCache) dualvdd.ResultCache {
		return chaos.NewCache(inner, src.Fork("cache"), slow)
	}
	slowJournal := func(inner dualvdd.JobStore) dualvdd.JobStore {
		return chaos.NewJournal(inner, src.Fork("journal"), slow)
	}
	diskStores := func(t *testing.T) (dualvdd.ResultCache, dualvdd.JobStore) {
		dir := t.TempDir()
		cas, err := store.OpenCAS(filepath.Join(dir, "cas"))
		if err != nil {
			t.Fatal(err)
		}
		journal, err := store.OpenJournal(filepath.Join(dir, "jobs.log"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = journal.Close() })
		return cas, journal
	}
	closeRunner := func(t *testing.T, r interface{ Close(context.Context) error }) {
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_ = r.Close(ctx)
		})
	}
	runners := []struct {
		name string
		open func(t *testing.T) dualvdd.Runner
	}{
		{"local-memory", func(t *testing.T) dualvdd.Runner {
			l := dualvdd.NewLocal(
				dualvdd.LocalResultCache(slowCache(dualvdd.NewMemoryCache(64))),
				dualvdd.LocalJobStore(slowJournal(dualvdd.NewMemoryJournal())))
			closeRunner(t, l)
			return l
		}},
		{"local-disk", func(t *testing.T) dualvdd.Runner {
			cas, journal := diskStores(t)
			l := dualvdd.NewLocal(
				dualvdd.LocalResultCache(slowCache(cas)),
				dualvdd.LocalJobStore(slowJournal(journal)))
			closeRunner(t, l)
			return l
		}},
		{"coordinator", func(t *testing.T) dualvdd.Runner {
			w := newChaosWorker(t)
			co, err := fleet.New([]string{w.ts.URL},
				fleet.WithResultCache(slowCache(dualvdd.NewMemoryCache(64))),
				fleet.WithJobStore(slowJournal(dualvdd.NewMemoryJournal())))
			if err != nil {
				t.Fatal(err)
			}
			closeRunner(t, co)
			return co
		}},
	}
	job := dualvdd.BLIFJob(".model t\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n",
		dualvdd.WithSimWords(8), dualvdd.WithAlgorithms(dualvdd.AlgoCVS))
	for _, rc := range runners {
		t.Run(rc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			r := rc.open(t)
			first, err := r.Submit(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			st, err := r.Result(ctx, first)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != dualvdd.JobDone || st.Cached {
				t.Fatalf("first run: state %s cached %v", st.State, st.Cached)
			}
			again, err := r.Submit(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			if again == first {
				t.Fatalf("resubmission after the terminal state deduped onto finished job %s", first)
			}
			st, err = r.Result(ctx, again)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Cached {
				t.Fatal("resubmission after the terminal state was not a cache hit")
			}
			m := r.(dualvdd.MetricsProvider).Metrics()
			if m.CacheHits != 1 || m.SubmitDedups != 0 {
				t.Fatalf("cache hits %d, submit dedups %d; want 1 and 0", m.CacheHits, m.SubmitDedups)
			}
		})
	}
}
