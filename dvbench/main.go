// Command dvbench is the benchmark of the dual-VDD flow. It runs one workload
// per invocation, measures it from outside through the public entry points of
// each layer, checks the outputs against independent paths, and prints one
// JSON result as the last line of standard output:
//
//	dvbench -workload cold-suite -seed 1 -seconds 15 -trace 0 -dualvdd ./dualvdd -out .bench_build
//
// With -trace 0 it reports the end-to-end metrics of the timed phase; with
// -trace 1 it makes the traced run instead and reports the per-layer metrics.
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// env is what every workload gets from the command line.
type env struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	dualvdd string // path of the dualvdd CLI binary (service workload)
	out     string // directory for run files: traces, stores
}

// report is a workload's verdict and numbers.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
}

// problem records a failed output or self-check: it is printed at once and
// makes the run incorrect.
func (r *report) problem(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dvbench: CHECK FAILED: "+format+"\n", args...)
	r.correct = false
}

type workload struct {
	name string
	// tailP is the fixed tail percentile of latency_tail_ms: the highest
	// percentile that leaves minBeyond samples beyond it at the least sample
	// count of the workload's timed phase.
	tailP float64
	run   func(*workload, env) *report
}

var workloads = []workload{
	{name: "cold-suite", tailP: 0.91, run: runCold},  // 3 passes: 117 jobs
	{name: "warm-sweep", tailP: 0.997, run: runWarm}, // 5 sweeps: 4475 points
	{name: "service", tailP: 0.998, run: runService}, // 9000 requests at -seconds 12
}

// units of every metric the benchmark prints.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"ops_per_s":       "1/s",
	"latency_p50_ms":  "ms",
	"latency_tail_ms": "ms",
	"cpu_ms_per_op":   "ms",
	"peak_rss_mb":     "MB",
	"success_ratio":   "ratio",
}

var perLayerUnits = map[string]string{
	"blif.parse_ms":                "ms",
	"mapper.cover_ms":              "ms",
	"mapper.recover_ms":            "ms",
	"mapper.recover_full_analyses": "count",
	"mapper.recover_full_evals":    "count",
	"mapper.recover_allocs":        "count",
	"mapper.gates":                 "count",
	"sta.baseline_ms":              "ms",
	"sta.verify_ms":                "ms",
	"sta.full_analyses":            "count",
	"sta.full_evals":               "count",
	"sta.inc_evals":                "count",
	"sim.baseline_ms":              "ms",
	"sim.final_ms":                 "ms",
	"sim.runs":                     "count",
	"sim.word_evals":               "count",
	"core.cvs_ms":                  "ms",
	"core.dscale_ms":               "ms",
	"core.gscale_ms":               "ms",
	"core.moves":                   "count",
	"core.rounds":                  "count",
	"core.cand_evals":              "count",
	"dualvdd.prep_ms":              "ms",
	"dualvdd.run_ms":               "ms",
	"dualvdd.runat_ms":             "ms",
	"dualvdd.runat_multirail_ms":   "ms",
	"dualvdd.runat_fence_ms":       "ms",
	"dualvdd.batch_wait_ms":        "ms",
	"client.submit_ms":             "ms",
	"client.wait_ms":               "ms",
	"fleet.cache_hits":             "count",
	"fleet.cache_misses":           "count",
	"fleet.cache_hit_ratio":        "ratio",
	"fleet.submit_dedups":          "count",
	"fleet.redispatches":           "count",
	"worker.jobs_done":             "count",
	"worker.sta_evals":             "count",
	"worker.sim_ms":                "ms",
	"store.cas_entries":            "count",
	"store.cas_bytes":              "bytes",
	"store.errors":                 "count",
	"runtime.allocs_per_op":        "count",
	"runtime.alloc_mb_per_op":      "MB",
	"runtime.gc_cycles":            "count",
	"runtime.gc_pause_ms":          "ms",
	"trace.ops":                    "count",
	"trace.unattributed_ms":        "ms",
	"trace.cpu_ms_per_op":          "ms",
	"trace.overhead_ratio":         "ratio",
}

func main() {
	name := flag.String("workload", "", "workload: cold-suite, warm-sweep or service")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
	bin := flag.String("dualvdd", "", "path of the dualvdd CLI (service workload)")
	out := flag.String("out", ".bench_build", "directory for traces and run state")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "dvbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "dvbench:", err)
		os.Exit(1)
	}
	e := env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, dualvdd: *bin, out: *out}
	rep := wl.run(wl, e)
	if rep == nil {
		os.Exit(1)
	}
	units := endToEndUnits
	if e.trace {
		units = perLayerUnits
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(units))
	names := make([]string, 0, len(units))
	for n, u := range units {
		v := rep.metrics[n]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problem("metric %s is %v", n, v)
			v = 0
		}
		metrics[n] = metric{Value: v, Unit: u}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "dvbench: %-30s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// timed is what a timed phase measured.
type timed struct {
	setup     []float64 // seconds, one per set-up repetition
	wall      time.Duration
	latencies []float64 // ms, one per completed op
	cpu       time.Duration
	rssMB     float64
	attempted int
	failed    int
}

// endToEnd turns a timed phase into the end-to-end metrics.
func (w *workload) endToEnd(t timed, rep *report) {
	done := t.attempted - t.failed
	tail, beyond := percentile(t.latencies, w.tailP)
	if beyond < minBeyond {
		rep.problem("%s: only %d latencies beyond p%g", w.name, beyond, w.tailP*100)
	}
	rep.attempted, rep.failed = t.attempted, t.failed
	rep.metrics = map[string]float64{
		"setup_s":         median(t.setup),
		"ops_per_s":       float64(done) / t.wall.Seconds(),
		"latency_p50_ms":  median(t.latencies),
		"latency_tail_ms": tail,
		"cpu_ms_per_op":   float64(t.cpu.Microseconds()) / 1e3 / float64(max(done, 1)),
		"peak_rss_mb":     t.rssMB,
		"success_ratio":   float64(done) / float64(max(t.attempted, 1)),
	}
	fmt.Fprintf(os.Stderr, "dvbench: %s: %d ops in %v, %d failed, p%g over %d samples (%d beyond)\n",
		w.name, t.attempted, t.wall.Round(time.Millisecond), t.failed, w.tailP*100, len(t.latencies), beyond)
}

// layerMetrics fills the per-layer metrics every workload derives the same
// way from its traced composition: span self times and counters.
func layerMetrics(m map[string]float64, spans []span, c counters) {
	self := selfMs(spans)
	m["blif.parse_ms"] = self["blif.parse"]
	m["mapper.cover_ms"] = self["mapper.cover"]
	m["mapper.recover_ms"] = self["mapper.recover"]
	m["sta.baseline_ms"] = self["sta.mindelay"] + self["sta.newinc"]
	m["sta.verify_ms"] = self["sta.verify"]
	m["sim.baseline_ms"] = self["sim.baseline"]
	m["sim.final_ms"] = self["sim.final"]
	m["dualvdd.runat_fence_ms"] = self["runat"] // warm-sweep takes its core time out
	m["core.cvs_ms"] = self["core.cvs"]
	m["core.dscale_ms"] = self["core.dscale"]
	m["core.gscale_ms"] = self["core.gscale"]
	m["client.submit_ms"] = self["client.submit"]
	m["client.wait_ms"] = self["client.wait"]
	m["trace.unattributed_ms"] = self["op"] + self["algo"]
	m["mapper.recover_full_analyses"] = float64(c.RecoverFullAnalyses)
	m["mapper.recover_full_evals"] = float64(c.RecoverFullEvals)
	m["mapper.recover_allocs"] = float64(c.RecoverAllocs)
	m["mapper.gates"] = float64(c.MappedGates)
	m["sta.full_analyses"] = float64(c.StaFullAnalyses)
	m["sta.full_evals"] = float64(c.StaFullEvals)
	m["sta.inc_evals"] = float64(c.StaIncEvals)
	m["sim.runs"] = float64(c.SimRuns)
	m["sim.word_evals"] = float64(c.SimWordEvals)
	m["core.moves"] = float64(c.Moves)
	m["core.rounds"] = float64(c.Rounds)
	m["core.cand_evals"] = float64(c.CandEvals)
}
