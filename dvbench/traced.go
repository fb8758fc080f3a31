package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// rtSnap is a snapshot of the Go runtime's allocation and GC totals.
type rtSnap struct {
	mallocs, bytes, pauseNs uint64
	gcs                     uint32
}

func runtimeSnap() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, pauseNs: ms.PauseTotalNs, gcs: ms.NumGC}
}

// add accumulates the movement from a to b.
func (s *rtSnap) add(a, b rtSnap) {
	s.mallocs += b.mallocs - a.mallocs
	s.bytes += b.bytes - a.bytes
	s.pauseNs += b.pauseNs - a.pauseNs
	s.gcs += b.gcs - a.gcs
}

// tracedPair runs each op of a traced run twice, one at a time: once with
// spans (A) and once without (B), alternating which goes first. The two runs
// must do exactly the same work, which is the determinism self-check, and
// their CPU ratio is the tracing overhead.
type tracedPair struct {
	tr         *tracer
	cntA, cntB counters
	cpuA, cpuB time.Duration
	rt         rtSnap // runtime movement of the A runs
	outA, outB map[int]string
}

func newTracedPair() *tracedPair {
	return &tracedPair{tr: newTracer(), outA: make(map[int]string), outB: make(map[int]string)}
}

// do runs fn for op as A and as B; fn returns the op's result text.
func (tp *tracedPair) do(op int, fn func(l *layers) string) {
	run := func(tr *tracer, cnt *counters, cpu *time.Duration, out map[int]string) {
		rt0 := runtimeSnap()
		before := processCounters()
		c0 := cpuSelf()
		out[op] = fn(&layers{tr: tr, op: op, cnt: cnt})
		*cpu += cpuSelf() - c0
		cnt.addProcessDelta(before)
		if tr != nil {
			tp.rt.add(rt0, runtimeSnap())
		}
	}
	a := func() { run(tp.tr, &tp.cntA, &tp.cpuA, tp.outA) }
	b := func() { run(nil, &tp.cntB, &tp.cpuB, tp.outB) }
	if op%2 == 0 {
		a()
		b()
	} else {
		b()
		a()
	}
}

// allocSlack is the relative difference two runs of one seed may show in
// mapper.recover_allocs. The Go runtime counts allocations process-wide, so
// a few runtime-internal ones (finalizers, timers) land in whichever span is
// open; every other counter must repeat exactly.
const allocSlack = 1e-4

// check fails the run loudly unless A and B did exactly the same work and
// produced the same results.
func (tp *tracedPair) check(rep *report, workload string) {
	a, b := tp.cntA, tp.cntB
	if d := a.RecoverAllocs - b.RecoverAllocs; float64(max(d, -d)) <= allocSlack*float64(max(a.RecoverAllocs, 1)) {
		b.RecoverAllocs = a.RecoverAllocs
	}
	if a != b {
		rep.problem("%s: exact counters differ between two runs of one seed:\n  %+v\n  %+v", workload, tp.cntA, tp.cntB)
	}
	for k, v := range tp.outA {
		if tp.outB[k] != v {
			rep.problem("%s: op %d results differ between two runs of one seed", workload, k)
		}
	}
}

// finish fills the span, counter, runtime and overhead metrics of the traced
// run and writes its spans under the output directory.
func (tp *tracedPair) finish(e env, workload string, m map[string]float64, cnt counters, ops int) {
	spans := tp.tr.finish()
	layerMetrics(m, spans, cnt)
	m["runtime.allocs_per_op"] = float64(tp.rt.mallocs) / float64(ops)
	m["runtime.alloc_mb_per_op"] = float64(tp.rt.bytes) / 1e6 / float64(ops)
	m["runtime.gc_cycles"] = float64(tp.rt.gcs)
	m["runtime.gc_pause_ms"] = float64(tp.rt.pauseNs) / 1e6
	m["trace.ops"] = float64(ops)
	m["trace.cpu_ms_per_op"] = float64(tp.cpuA.Microseconds()) / 1e3 / float64(ops)
	m["trace.overhead_ratio"] = tp.cpuA.Seconds() / tp.cpuB.Seconds()

	path := filepath.Join(e.out, fmt.Sprintf("trace-%s-%d.json", workload, e.seed))
	if err := writeSpans(path, spans); err != nil {
		fmt.Fprintln(os.Stderr, "dvbench: writing trace:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "dvbench: %d spans written to %s\n", len(spans), path)
}
