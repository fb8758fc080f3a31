package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"dualvdd"
	"dualvdd/internal/blif"
	"dualvdd/internal/mcnc"
)

const (
	// minWarmSweeps is the least number of sweeps a warm-sweep run makes:
	// two keep latency_tail_ms above the tail rule, and five average the
	// run over about twenty seconds of work.
	minWarmSweeps = 5
	// warmSetupReps is how often a warm-sweep run sets up; it reports the
	// median.
	warmSetupReps = 3
	// warmSamples is how many points are checked against a cold Flow.Run.
	warmSamples = 6
)

// warmItem is one warm-sweep chain: all rail points of a circuit, in order.
type warmItem struct{ sweep, circuit int }

// pointRecord is one rail point of a chain.
type pointRecord struct {
	sweep, circuit, point int
	lat                   time.Duration
	err                   error
	text                  string
	moves, rounds         int64
}

// prepareAll parses every model and prepares it with Flow.PrepareWarm on the
// two workers; it returns the warm designs and each preparation's duration.
func prepareAll(f *dualvdd.Flow, texts []string) ([]*dualvdd.WarmDesign, []time.Duration, error) {
	wds := make([]*dualvdd.WarmDesign, len(texts))
	durs := make([]time.Duration, len(texts))
	errs := make([]error, len(texts))
	idx := make([]int, len(texts))
	for i := range idx {
		idx[i] = i
	}
	runClosedLoop(workers, once(idx), nil, func(i int, _ time.Duration) {
		errs[i] = protect(func() error {
			t0 := time.Now()
			net, err := blif.ParseNetwork(strings.NewReader(texts[i]))
			if err != nil {
				return err
			}
			wds[i], err = f.PrepareWarm(context.Background(), net)
			durs[i] = time.Since(t0)
			return err
		})
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("preparing circuit %d: %w", i, err)
		}
	}
	return wds, durs, nil
}

// runChain runs every rail point of one circuit through WarmDesign.RunAt. A
// panic or an error fails that point only.
func runChain(wd *dualvdd.WarmDesign, it warmItem, rails [][]float64) []pointRecord {
	recs := make([]pointRecord, len(rails))
	design := designOf(wd.Design)
	for p, r := range rails {
		rec := &recs[p]
		rec.sweep, rec.circuit, rec.point = it.sweep, it.circuit, p
		obs := func(ev dualvdd.Event) {
			switch ev.(type) {
			case dualvdd.EventMove:
				rec.moves++
			case dualvdd.EventRoundDone:
				rec.rounds++
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		t0 := time.Now()
		rec.err = protect(func() error {
			res, err := wd.RunAt(ctx, r, nil, obs)
			if err == nil {
				rec.text = resultText(design, outcomesOf(res))
			}
			return err
		})
		rec.lat = time.Since(t0)
		cancel()
	}
	return recs
}

// runSweeps runs sweeps over all chains, two chains at a time, until more
// returns false at a sweep boundary. Sweep s takes the chains in its seeded
// order; two chains of one circuit never run at once.
func runSweeps(seed uint64, wds []*dualvdd.WarmDesign, rails [][]float64, more func(sweeps int) bool) ([]pointRecord, time.Duration) {
	var mu sync.Mutex
	var recs []pointRecord
	var wait time.Duration
	sweep := 0
	refill := func() []warmItem {
		if !more(sweep) {
			return nil
		}
		var items []warmItem
		for _, c := range permutation(seed, fmt.Sprintf("warm-chains/%d", sweep), len(wds)) {
			items = append(items, warmItem{sweep: sweep, circuit: c})
		}
		sweep++
		return items
	}
	runClosedLoop(workers, refill, func(it warmItem) int { return it.circuit }, func(it warmItem, w time.Duration) {
		rs := runChain(wds[it.circuit], it, rails)
		mu.Lock()
		recs = append(recs, rs...)
		wait += w
		mu.Unlock()
	})
	return recs, wait
}

func runWarm(wl *workload, e env) *report {
	rep := &report{correct: true}
	names := mcnc.Names()
	rails := warmRails()
	f := dualvdd.New(dualvdd.WithSeed(e.seed))
	var texts []string
	var wds []*dualvdd.WarmDesign
	var prepDurs []time.Duration
	var setup []float64
	reps := warmSetupReps
	if e.trace {
		reps = 1
	}
	for r := 0; r < reps; r++ {
		wds = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if texts, err = generate(names); err == nil {
			wds, prepDurs, err = prepareAll(f, texts)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvbench:", err)
			return nil
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	if e.trace {
		return warmTraced(e, names, texts, rails, wds, prepDurs, rep)
	}

	start := time.Now()
	cpu0 := cpuSelf()
	rss := sampleRSS("self")
	recs, _ := runSweeps(e.seed, wds, rails, func(sweeps int) bool {
		return sweeps < minWarmSweeps || time.Since(start) < e.seconds
	})
	t := timed{setup: setup, wall: time.Since(start), cpu: cpuSelf() - cpu0, rssMB: rss.stop()}

	bad := checkWarm(e, names, texts, rails, recs, rep)
	for _, r := range recs {
		t.attempted++
		if r.err != nil || bad[[2]int{r.circuit, r.point}] {
			t.failed++
			continue
		}
		t.latencies = append(t.latencies, float64(r.lat.Microseconds())/1e3)
	}
	wl.endToEnd(t, rep)
	return rep
}

// checkWarm holds every point to its sweep-0 result, compares a seeded
// sample of points with a cold Flow.Run at the same rails, prints the digest,
// and returns the points that failed a check.
func checkWarm(e env, names, texts []string, rails [][]float64, recs []pointRecord, rep *report) map[[2]int]bool {
	bad := make(map[[2]int]bool)
	first := make(map[[2]int]*pointRecord)
	for i := range recs {
		if recs[i].sweep == 0 {
			first[[2]int{recs[i].circuit, recs[i].point}] = &recs[i]
		}
	}
	failures := 0
	for _, r := range recs {
		k := [2]int{r.circuit, r.point}
		f := first[k]
		if r.err != nil {
			if r.sweep == 0 {
				failures++
				fmt.Fprintf(os.Stderr, "dvbench: %s at %v failed: %v\n", names[r.circuit], rails[r.point], r.err)
			}
			if f.err == nil {
				rep.problem("%s at %v: failed in sweep %d only", names[r.circuit], rails[r.point], r.sweep)
			}
			continue
		}
		if f.err != nil || r.text != f.text || r.moves != f.moves || r.rounds != f.rounds {
			rep.problem("%s at %v: sweep %d differs from sweep 0", names[r.circuit], rails[r.point], r.sweep)
			bad[k] = true
		}
	}
	fmt.Fprintf(os.Stderr, "dvbench: warm-sweep: %d of %d points fail in each sweep\n", failures, len(first))

	// The seeded sample, cold: Flow.LoadBLIF and Flow.Run at the point's rails.
	sample := permutation(e.seed, "warm-sample", len(texts)*len(rails))[:warmSamples]
	var mu sync.Mutex
	runClosedLoop(workers, once(sample), nil, func(s int, _ time.Duration) {
		k := [2]int{s / len(rails), s % len(rails)}
		f := first[k]
		var text string
		err := protect(func() error {
			flow := dualvdd.New(dualvdd.WithSeed(e.seed), dualvdd.WithRails(rails[k[1]]...))
			d, err := flow.LoadBLIF(context.Background(), strings.NewReader(texts[k[0]]))
			if err != nil {
				return err
			}
			res, err := flow.Run(context.Background(), d)
			if err == nil {
				text = resultText(designOf(d), outcomesOf(res))
			}
			return err
		})
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil && f.err != nil:
			fmt.Fprintf(os.Stderr, "dvbench: sampled %s at %v fails cold as well: %v\n", names[k[0]], rails[k[1]], err)
		case err != nil || f.err != nil || text != f.text:
			rep.problem("%s at %v: warm RunAt differs from cold Flow.Run (warm %v, cold %v)", names[k[0]], rails[k[1]], f.err, err)
			bad[k] = true
		}
	})

	lines := make([]string, 0, len(first))
	for k, f := range first {
		text := f.text
		if f.err != nil {
			text = "FAILED"
		}
		lines = append(lines, fmt.Sprintf("%s %v\n%s", names[k[0]], rails[k[1]], text))
	}
	printDigest("warm-sweep", e.seed, lines)
	return bad
}

// warmTraced is the traced warm-sweep run: one untraced sweep for the
// reference results and the RunAt times, then per circuit the composed
// preparation with spans, held to Flow.PrepareWarm's design, then each rail
// point as one RunAt per algorithm, twice (traced and untraced, one at a
// time), held to the reference point.
func warmTraced(e env, names, texts []string, rails [][]float64, wds []*dualvdd.WarmDesign, prepDurs []time.Duration, rep *report) *report {
	m := make(map[string]float64)
	for _, d := range prepDurs {
		m["dualvdd.prep_ms"] += float64(d.Microseconds()) / 1e3
	}
	recs, wait := runSweeps(e.seed, wds, rails, func(sweeps int) bool { return sweeps < 1 })
	m["dualvdd.batch_wait_ms"] = float64(wait.Microseconds()) / 1e3 / float64(len(wds))
	bad := checkWarm(e, names, texts, rails, recs, rep)
	ref := make(map[[2]int]*pointRecord)
	var moves, rounds int64
	for i := range recs {
		r := &recs[i]
		ref[[2]int{r.circuit, r.point}] = r
		moves, rounds = moves+r.moves, rounds+r.rounds
		name := "dualvdd.runat_ms"
		if len(rails[r.point]) > 2 {
			name = "dualvdd.runat_multirail_ms"
		}
		m[name] += float64(r.lat.Microseconds()) / 1e3
	}

	cfg := dualvdd.New(dualvdd.WithSeed(e.seed)).Config()
	tp := newTracedPair()
	coreMs := make(map[string]float64)
	var prepCnt counters
	op := 0
	for _, c := range permutation(e.seed, "warm-chains/0", len(texts)) {
		op++
		l := &layers{tr: tp.tr, op: op, cnt: &prepCnt}
		root := l.tr.begin("op", op, -1)
		var pr *prep
		before := processCounters()
		err := protect(func() (err error) {
			pr, err = l.prepare(root, texts[c], cfg)
			return err
		})
		prepCnt.addProcessDelta(before)
		l.tr.end(root)
		design := designOf(wds[c].Design)
		if err != nil {
			rep.problem("%s: composed preparation: %v", names[c], err)
		} else if pr.design() != design {
			rep.problem("%s: composed preparation %v differs from Flow.PrepareWarm's %v", names[c], pr.design(), design)
		}
		for p, r := range rails {
			op++
			k := [2]int{c, p}
			tp.do(op, func(l *layers) string {
				root := l.tr.begin("op", l.op, -1)
				defer l.tr.end(root)
				var outs []outcome
				err := protect(func() (err error) {
					outs, err = l.runAtEach(root, wds[c], r, coreMs)
					return err
				})
				text := "FAILED"
				if err == nil {
					text = resultText(design, outs)
				}
				if (err != nil) != (ref[k].err != nil) || (err == nil && text != ref[k].text) {
					rep.problem("%s at %v: one RunAt per algorithm differs from RunAt of all three (per algorithm %v, all three %v)", names[c], r, err, ref[k].err)
					bad[k] = true
				}
				return text
			})
		}
	}
	tp.check(rep, "warm-sweep")
	if moves != tp.cntA.Moves || rounds != tp.cntA.Rounds {
		rep.problem("warm-sweep: the reference sweep counted %d moves / %d rounds, the traced pass %d / %d", moves, rounds, tp.cntA.Moves, tp.cntA.Rounds)
	}
	cnt := tp.cntA
	cnt.RecoverFullAnalyses, cnt.RecoverFullEvals, cnt.RecoverAllocs = prepCnt.RecoverFullAnalyses, prepCnt.RecoverFullEvals, prepCnt.RecoverAllocs
	cnt.MappedGates = prepCnt.MappedGates
	cnt.StaFullAnalyses += prepCnt.StaFullAnalyses
	cnt.StaFullEvals += prepCnt.StaFullEvals
	cnt.SimRuns += prepCnt.SimRuns
	cnt.SimWordEvals += prepCnt.SimWordEvals
	tp.finish(e, "warm-sweep", m, cnt, len(recs))
	// The runat spans hold the *On calls; what is left of them is the fence
	// RunAt puts around each: retarget, checkpoint, verdict, power, rollback.
	for name, ms := range coreMs {
		m[name] = ms
		m["dualvdd.runat_fence_ms"] -= ms
	}
	rep.metrics = m
	rep.attempted = len(recs)
	for _, r := range recs {
		if r.err != nil || bad[[2]int{r.circuit, r.point}] {
			rep.failed++
		}
	}
	return rep
}
