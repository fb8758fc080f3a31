package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"dualvdd"
	"dualvdd/internal/mcnc"
	"dualvdd/internal/netlist"
	"dualvdd/internal/power"
	"dualvdd/internal/sim"
	"dualvdd/internal/sta"
)

const (
	// workers is the closed loop's concurrency: one per core of the
	// two-core machine the benchmark is sized for.
	workers = 2
	// opTimeout bounds one op; an op that runs longer fails.
	opTimeout = 120 * time.Second
	// coldSetupReps is how often a cold-suite run generates its inputs; it
	// reports the median. Generation takes milliseconds, so many
	// repetitions are cheap and keep the median steady.
	coldSetupReps = 25
	// minColdPasses is the least number of passes a cold-suite run makes:
	// two keep latency_tail_ms above the tail rule, and a third averages
	// the pairing of long jobs on the two workers.
	minColdPasses = 3
)

// coldItem is one cold-suite job: a circuit of one pass over the suite.
type coldItem struct{ pass, circuit int }

// coldRecord is one completed cold-suite job.
type coldRecord struct {
	item          coldItem
	wait          time.Duration
	prep, run     time.Duration // Flow.LoadBLIF and Flow.Run
	err           error
	text          string // resultText of the job
	moves, rounds int64  // counted through WithObserver
	design        *dualvdd.Design
	results       []*dualvdd.FlowResult
}

// coldJob submits one BLIF model at the paper's configuration through
// Flow.LoadBLIF and Flow.Run with all three algorithms. keep retains the
// design and the scaled netlists for the output checks.
func coldJob(seed uint64, text string, keep bool) coldRecord {
	var rec coldRecord
	obs := func(ev dualvdd.Event) {
		switch ev.(type) {
		case dualvdd.EventMove:
			rec.moves++
		case dualvdd.EventRoundDone:
			rec.rounds++
		}
	}
	f := dualvdd.New(dualvdd.WithSeed(seed), dualvdd.WithObserver(obs))
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	rec.err = protect(func() error {
		t0 := time.Now()
		d, err := f.LoadBLIF(ctx, strings.NewReader(text))
		rec.prep = time.Since(t0)
		if err != nil {
			return err
		}
		t1 := time.Now()
		res, err := f.Run(ctx, d)
		rec.run = time.Since(t1)
		if err != nil {
			return err
		}
		rec.text = resultText(designOf(d), outcomesOf(res))
		if keep {
			rec.design, rec.results = d, res
		}
		return nil
	})
	return rec
}

// runColdPasses runs passes over the suite through the two-worker closed loop,
// numbered from first, until more returns false at a pass boundary (more gets
// the number of passes this call has made). Pass p submits the circuits in the
// seeded order of that pass; keep retains the designs for the output checks.
func runColdPasses(seed uint64, texts []string, first int, keep bool, more func(passes int) bool) []coldRecord {
	var mu sync.Mutex
	var recs []coldRecord
	pass := first
	refill := func() []coldItem {
		if !more(pass - first) {
			return nil
		}
		var items []coldItem
		for _, c := range permutation(seed, fmt.Sprintf("cold-order/%d", pass), len(texts)) {
			items = append(items, coldItem{pass: pass, circuit: c})
		}
		pass++
		return items
	}
	runClosedLoop(workers, refill, nil, func(it coldItem, wait time.Duration) {
		rec := coldJob(seed, texts[it.circuit], keep)
		rec.item, rec.wait = it, wait
		mu.Lock()
		recs = append(recs, rec)
		mu.Unlock()
	})
	return recs
}

func runCold(wl *workload, e env) *report {
	rep := &report{correct: true}
	names := mcnc.Names()
	var texts []string
	var setup []float64
	for r := 0; r < coldSetupReps; r++ {
		t0 := time.Now()
		var err error
		if texts, err = generate(names); err != nil {
			fmt.Fprintln(os.Stderr, "dvbench:", err)
			return nil
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	refs, bad := coldReference(e, names, texts, rep)
	if e.trace {
		return coldTraced(e, names, texts, refs, bad, rep)
	}
	// Only the reference texts outlive the checks, and their memory goes
	// back to the system: the timed phase, and peak_rss_mb with it, holds no
	// design but those of the jobs in flight.
	ref := make(map[int]*coldRecord, len(refs))
	for i := range refs {
		refs[i].design, refs[i].results = nil, nil
		ref[refs[i].item.circuit] = &refs[i]
	}
	debug.FreeOSMemory()

	start := time.Now()
	cpu0 := cpuSelf()
	rss := sampleRSS("self")
	recs := runColdPasses(e.seed, texts, 1, false, func(passes int) bool {
		return passes < minColdPasses || time.Since(start) < e.seconds
	})
	t := timed{setup: setup, wall: time.Since(start), cpu: cpuSelf() - cpu0, rssMB: rss.stop()}

	for _, r := range recs {
		c := r.item.circuit
		f := ref[c]
		switch {
		case r.err != nil:
			fmt.Fprintf(os.Stderr, "dvbench: %s pass %d failed: %v\n", names[c], r.item.pass, r.err)
		case f.err != nil || r.text != f.text || r.moves != f.moves || r.rounds != f.rounds:
			rep.problem("%s: pass %d differs from the reference pass", names[c], r.item.pass)
			bad[c] = true
		}
	}
	for _, r := range recs {
		t.attempted++
		if r.err != nil || bad[r.item.circuit] {
			t.failed++
			continue
		}
		t.latencies = append(t.latencies, float64((r.prep+r.run).Microseconds())/1e3)
	}
	wl.endToEnd(t, rep)
	return rep
}

// coldReference runs the untimed reference pass (pass 0) with its designs
// kept, re-verifies each netlist against the oracles and prints the digest.
// It returns the pass's records and the circuits that failed a check.
func coldReference(e env, names, texts []string, rep *report) ([]coldRecord, map[int]bool) {
	cfg := dualvdd.New(dualvdd.WithSeed(e.seed)).Config()
	recs := runColdPasses(e.seed, texts, 0, true, func(passes int) bool { return passes < 1 })
	bad := make(map[int]bool)
	var mu sync.Mutex
	var ok []*coldRecord
	for i := range recs {
		if recs[i].err == nil {
			ok = append(ok, &recs[i])
		} else {
			fmt.Fprintf(os.Stderr, "dvbench: %s reference pass failed: %v\n", names[recs[i].item.circuit], recs[i].err)
		}
	}
	runClosedLoop(workers, once(ok), nil, func(f *coldRecord, _ time.Duration) {
		if err := verifyCold(cfg, f.design, f.results); err != nil {
			mu.Lock()
			rep.problem("%s: %v", names[f.item.circuit], err)
			bad[f.item.circuit] = true
			mu.Unlock()
		}
	})
	lines := make([]string, 0, len(recs))
	for _, f := range recs {
		text := f.text
		if f.err != nil {
			text = "FAILED"
		}
		lines = append(lines, names[f.item.circuit]+"\n"+text)
	}
	printDigest("cold-suite", e.seed, lines)
	return recs, bad
}

// verifyCold re-checks each scaled netlist with a fresh full timing analysis
// and recomputes its power from the reference interpreter's activities.
func verifyCold(cfg dualvdd.Config, d *dualvdd.Design, results []*dualvdd.FlowResult) error {
	for _, r := range results {
		t, err := sta.Analyze(r.Circuit, d.Lib, d.Tspec)
		if err != nil {
			return err
		}
		if !t.Meets(1e-6) || math.Float64bits(d.Tspec-t.WorstArrival) != math.Float64bits(r.WorstSlack) {
			return fmt.Errorf("%s: re-analysis slack %g, result says %g", r.Algorithm, d.Tspec-t.WorstArrival, r.WorstSlack)
		}
		ref, err := sim.RunReference(r.Circuit, cfg.SimWords, cfg.Seed)
		if err != nil {
			return err
		}
		if pw := power.Estimate(r.Circuit, d.Lib, ref.Act, cfg.Fclk).Total; math.Float64bits(pw) != math.Float64bits(r.Power) {
			return fmt.Errorf("%s: reference power %g, result says %g", r.Algorithm, pw, r.Power)
		}
	}
	return nil
}

// once is a closed-loop refill that hands out items once.
func once[T any](items []T) func() []T {
	given := false
	return func() []T {
		if given {
			return nil
		}
		given = true
		return items
	}
}

// printDigest prints the SHA-256 of the sorted result texts, so two commits
// can be compared exactly on one workload and seed.
func printDigest(workload string, seed uint64, lines []string) {
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	fmt.Printf("dvbench: digest %s seed=%d results=%d sha256=%x\n", workload, seed, len(lines), h.Sum(nil))
}

// composeJob runs one job from the layer calls in the order Flow.LoadBLIF and
// Flow.Run make them, under the op's root span.
func composeJob(l *layers, text string, cfg dualvdd.Config, algos []dualvdd.Algorithm) (string, []*netlist.Circuit, error) {
	root := l.tr.begin("op", l.op, -1)
	defer l.tr.end(root)
	var p *prep
	var outs []outcome
	var ckts []*netlist.Circuit
	err := protect(func() error {
		var err error
		if p, err = l.prepare(root, text, cfg); err != nil {
			return err
		}
		for _, algo := range algos {
			o, ckt, err := l.runCold(root, p, algo)
			if err != nil {
				return err
			}
			outs, ckts = append(outs, o), append(ckts, ckt)
		}
		return nil
	})
	if err != nil {
		return "", nil, err
	}
	return resultText(p.design(), outs), ckts, nil
}

// coldTraced is the traced cold-suite run: the reference pass gives the
// reference results and the queue wait, then the composed pipeline runs one
// op at a time, traced and untraced in turn (see tracedPair).
func coldTraced(e env, names, texts []string, recs []coldRecord, bad map[int]bool, rep *report) *report {
	m := make(map[string]float64)
	ref := make(map[int]*coldRecord)
	var wait time.Duration
	for i := range recs {
		r := &recs[i]
		ref[r.item.circuit] = r
		wait += r.wait
		m["dualvdd.prep_ms"] += float64(r.prep.Microseconds()) / 1e3
		m["dualvdd.run_ms"] += float64(r.run.Microseconds()) / 1e3
	}
	m["dualvdd.batch_wait_ms"] = float64(wait.Microseconds()) / 1e3 / float64(len(recs))

	cfg := dualvdd.New(dualvdd.WithSeed(e.seed)).Config()
	order := permutation(e.seed, "cold-order/0", len(texts))
	tp := newTracedPair()
	for i, c := range order {
		r := ref[c]
		tp.do(i, func(l *layers) string {
			text, ckts, err := composeJob(l, texts[c], cfg, dualvdd.Algorithms())
			switch {
			case err != nil || r.err != nil:
				rep.problem("%s: composed %v, Flow.Run %v", names[c], err, r.err)
				bad[c] = true
			case text != r.text:
				rep.problem("%s: composed pipeline differs from Flow.Run", names[c])
				bad[c] = true
			case l.tr != nil:
				for k, ckt := range ckts {
					if circuitText(ckt) != circuitText(r.results[k].Circuit) {
						rep.problem("%s: composed %s netlist differs from Flow.Run's", names[c], r.results[k].Algorithm)
						bad[c] = true
					}
				}
			}
			return text
		})
	}
	tp.check(rep, "cold-suite")
	cntA := tp.cntA
	var moves, rounds int64
	for _, r := range recs {
		moves, rounds = moves+r.moves, rounds+r.rounds
	}
	if moves != cntA.Moves || rounds != cntA.Rounds {
		rep.problem("cold-suite: WithObserver counted %d moves / %d rounds, the composition %d / %d", moves, rounds, cntA.Moves, cntA.Rounds)
	}
	tp.finish(e, "cold-suite", m, cntA, len(order))
	rep.metrics = m
	rep.attempted = len(order)
	rep.failed = len(bad)
	return rep
}
