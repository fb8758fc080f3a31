package dualvdd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

// Sweep is a design-space exploration over the flow's configuration axes:
// the grid the paper's single (VDDH, VDDL, slack) point is one corner of.
// Each listed axis value set is crossed with every other, per circuit, and
// the resulting points are executed through any Runner — a Local fans them
// across its worker pool and dedupes shared points through its
// content-addressed cache, a client.Client runs the identical sweep against
// a remote `dualvdd serve`. Results aggregate in expansion order regardless
// of scheduling, so a sweep is as deterministic as the single runs it is
// made of.
//
// Expansion order (Points) is fixed and documented: circuits outermost, then
// the supply axis (whole rail tables when Axes.Rails is set, otherwise VDDH
// then VDDL), slack factor, sim words, and algorithm sets innermost, each
// axis iterated in its given order with the rightmost axis varying fastest.
// An omitted axis contributes the base value, so the zero Axes sweeps
// exactly the base configuration across the circuits.
type Sweep struct {
	// Circuits are the designs to sweep. Build benchmark entries with
	// SweepBenchmarks, or inline BLIF models directly.
	Circuits []SweepCircuit `json:"circuits"`
	// Base is the configuration every point starts from; axes override
	// individual fields. The zero Config means DefaultConfig.
	Base Config `json:"base"`
	// Algorithms is the base algorithm set used when Axes.AlgorithmSets is
	// empty; nil means all three in the paper's order.
	Algorithms []Algorithm `json:"algorithms,omitempty"`
	// Axes are the swept dimensions.
	Axes Axes `json:"axes"`
}

// SweepCircuit is one design of a sweep: a named MCNC benchmark or an inline
// BLIF model, exactly one of which must be set (the same contract as Job).
type SweepCircuit struct {
	Benchmark string `json:"benchmark,omitempty"`
	BLIF      string `json:"blif,omitempty"`
}

// labelAt names the circuit for error messages and events. Inline BLIF models
// have no name of their own, so they are labelled by their position in the
// sweep's circuit list — "blif#0", "blif#1", … — keeping multi-inline sweeps
// distinguishable in events, errors and table output.
func (c SweepCircuit) labelAt(i int) string {
	if c.Benchmark != "" {
		return c.Benchmark
	}
	return fmt.Sprintf("blif#%d", i)
}

// SweepBenchmarks builds the circuit list for named MCNC benchmarks.
func SweepBenchmarks(names ...string) []SweepCircuit {
	out := make([]SweepCircuit, len(names))
	for i, n := range names {
		out[i] = SweepCircuit{Benchmark: n}
	}
	return out
}

// Axes are the swept Config dimensions. A nil axis is not swept: the base
// value stands. Values are used exactly as given, in the given order — the
// CLI's range syntax expands to an explicit list before it gets here.
type Axes struct {
	// VDDH and VDDL sweep the supply rails in volts.
	VDDH []float64 `json:"vddh,omitempty"`
	VDDL []float64 `json:"vddl,omitempty"`
	// Rails sweeps whole supply tables (Config.Rails): each entry is one
	// sorted, strictly descending rail list of two or more supplies. The
	// axis replaces the VDDH×VDDL cross — setting it alongside VDDH or VDDL
	// (or a multi-rail Base) is an expansion error, since a scalar rail
	// override of a swept table would be silently ignored.
	Rails [][]float64 `json:"rails,omitempty"`
	// SlackFactor sweeps the timing-constraint relaxation.
	SlackFactor []float64 `json:"slack_factor,omitempty"`
	// SimWords sweeps the power-estimation simulation length.
	SimWords []int `json:"sim_words,omitempty"`
	// AlgorithmSets sweeps which algorithms run; each entry must be
	// non-empty (an empty set is a validation error, not "all").
	AlgorithmSets [][]Algorithm `json:"algorithm_sets,omitempty"`
}

// SweepPoint is one expanded point of the grid: a circuit plus the fully
// resolved configuration and algorithm set. Index is the point's position in
// expansion order.
type SweepPoint struct {
	Index      int          `json:"index"`
	Circuit    SweepCircuit `json:"circuit"`
	Config     Config       `json:"config"`
	Algorithms []Algorithm  `json:"algorithms"`

	// ci is the circuit's position in Sweep.Circuits, for labelling inline
	// models ("blif#<ci>"). Process-local: it never crosses the wire.
	ci int
}

// label names the point's circuit for errors and events.
func (p SweepPoint) label() string { return p.Circuit.labelAt(p.ci) }

// Job converts the point into the Runner job that computes it. The job's
// content address is the point's identity: two sweeps sharing a point share
// its cache entry.
func (p SweepPoint) Job() Job {
	return Job{
		Benchmark:  p.Circuit.Benchmark,
		BLIF:       p.Circuit.BLIF,
		Config:     p.Config,
		Algorithms: append([]Algorithm(nil), p.Algorithms...),
	}
}

// SweepPointResult pairs a point with its terminal job status. Status.State
// is always JobDone here — Run turns any other terminal state into an error.
type SweepPointResult struct {
	Point  SweepPoint `json:"point"`
	Status *JobStatus `json:"status"`
}

// Points expands the sweep into its deterministic point list: circuits
// outermost, then VDDH, VDDL, slack factor, sim words and algorithm sets,
// rightmost fastest, each in given order. Every expanded Config is validated
// (Config.Validate), every algorithm set must be non-empty and known, and
// the circuit list must be non-empty with each entry naming exactly one
// input — so a degenerate axis combination (say a VDDL value at or above
// VDDH) fails loudly at expansion, before any job is submitted.
func (s Sweep) Points() ([]SweepPoint, error) {
	if len(s.Circuits) == 0 {
		return nil, errors.New("dualvdd: sweep has no circuits")
	}
	base := mergeDefaults(s.Base)
	baseAlgos := s.Algorithms
	if len(baseAlgos) == 0 {
		baseAlgos = Algorithms()
	}
	// The supply dimension: either whole rail tables (the Rails axis) or the
	// classic VDDH×VDDL cross, never both — a scalar rail override of a swept
	// table would be silently ignored, so the combination is refused loudly.
	type railChoice struct {
		vh, vl float64   // the classic pair (rails == nil)
		rails  []float64 // a full rail table
	}
	var supplies []railChoice
	if len(s.Axes.Rails) > 0 {
		if len(s.Axes.VDDH) > 0 || len(s.Axes.VDDL) > 0 {
			return nil, errors.New("dualvdd: sweep axes: Rails and VDDH/VDDL are mutually exclusive — sweep whole rail tables or the classic pair, not both")
		}
		for i, rv := range s.Axes.Rails {
			if len(rv) < 2 {
				return nil, fmt.Errorf("dualvdd: sweep axes: rails entry %d needs at least two supplies, got %d", i, len(rv))
			}
			supplies = append(supplies, railChoice{rails: rv})
		}
	} else {
		if len(base.Rails) > 2 && (len(s.Axes.VDDH) > 0 || len(s.Axes.VDDL) > 0) {
			return nil, errors.New("dualvdd: sweep axes: VDDH/VDDL cannot sweep a multi-rail Base — use the Rails axis")
		}
		vddh := s.Axes.VDDH
		if len(vddh) == 0 {
			vddh = []float64{base.Vhigh}
		}
		vddl := s.Axes.VDDL
		if len(vddl) == 0 {
			vddl = []float64{base.Vlow}
		}
		for _, vh := range vddh {
			for _, vl := range vddl {
				supplies = append(supplies, railChoice{vh: vh, vl: vl})
			}
		}
	}
	slack := s.Axes.SlackFactor
	if len(slack) == 0 {
		slack = []float64{base.SlackFactor}
	}
	words := s.Axes.SimWords
	if len(words) == 0 {
		words = []int{base.SimWords}
	}
	sets := s.Axes.AlgorithmSets
	if len(sets) == 0 {
		sets = [][]Algorithm{baseAlgos}
	}

	points := make([]SweepPoint, 0, len(s.Circuits)*len(supplies)*len(slack)*len(words)*len(sets))
	for ci, ckt := range s.Circuits {
		if (ckt.Benchmark == "") == (ckt.BLIF == "") {
			return nil, fmt.Errorf("dualvdd: sweep circuit %d needs exactly one of Benchmark or BLIF", ci)
		}
		for _, rc := range supplies {
			for _, sf := range slack {
				for _, sw := range words {
					for _, algos := range sets {
						cfg := base
						if rc.rails != nil {
							cfg.Rails = append([]float64(nil), rc.rails...)
						} else {
							cfg.Vhigh, cfg.Vlow = rc.vh, rc.vl
						}
						cfg.SlackFactor = sf
						cfg.SimWords = sw
						// Canonical form: a two-entry rail table folds into
						// the aliases, so its points share content addresses
						// (and cache entries) with classic-pair points.
						cfg = cfg.Normalized()
						pt := SweepPoint{
							Index:      len(points),
							Circuit:    ckt,
							Config:     cfg,
							Algorithms: append([]Algorithm(nil), algos...),
							ci:         ci,
						}
						if len(algos) == 0 {
							return nil, fmt.Errorf("dualvdd: sweep point %d (%s): empty algorithm set", pt.Index, ckt.labelAt(ci))
						}
						if err := pt.Job().Validate(); err != nil {
							if rc.rails != nil {
								return nil, fmt.Errorf("dualvdd: sweep point %d (%s, rails=%v slack=%g words=%d): %w",
									pt.Index, ckt.labelAt(ci), rc.rails, sf, sw, err)
							}
							return nil, fmt.Errorf("dualvdd: sweep point %d (%s, vddh=%g vddl=%g slack=%g words=%d): %w",
								pt.Index, ckt.labelAt(ci), rc.vh, rc.vl, sf, sw, err)
						}
						points = append(points, pt)
					}
				}
			}
		}
	}
	return points, nil
}

// mergeDefaults fills every zero field of a sweep base from DefaultConfig,
// field by field. The old rule — defaults only when the whole struct was
// zero — was a pitfall: a Base that set nothing but Seed silently ran with
// zero voltages and failed validation at the first point. Field-wise merging
// means "set what you care about, inherit the paper's values for the rest".
// Only fields whose default is non-zero are merged, so every zero-is-
// meaningful knob keeps working: SimWorkers 0 already means GOMAXPROCS (the
// default), and the greedy ablation booleans default to false. The one
// shape the rule makes inexpressible in Base is an exact zero for
// MaxAreaIncrease or MaxIter (both merge to the paper's 0.10 / 10); a sweep
// that wants Gscale pinned down says so with a vanishingly small positive
// value instead. That corner is documented here on purpose — it is far
// rarer than the partially filled Base the old rule broke on.
func mergeDefaults(base Config) Config {
	def := DefaultConfig()
	// A Base that speaks Rails has its Vhigh/Vlow aliases derived first, so
	// the pair merge below never fights the rail table.
	base = base.Normalized()
	if base.Vhigh == 0 {
		base.Vhigh = def.Vhigh
	}
	if base.Vlow == 0 {
		base.Vlow = def.Vlow
	}
	if base.SlackFactor == 0 {
		base.SlackFactor = def.SlackFactor
	}
	if base.MaxAreaIncrease == 0 {
		base.MaxAreaIncrease = def.MaxAreaIncrease
	}
	if base.MaxIter == 0 {
		base.MaxIter = def.MaxIter
	}
	if base.SimWords == 0 {
		base.SimWords = def.SimWords
	}
	if base.Seed == 0 {
		base.Seed = def.Seed
	}
	if base.Fclk == 0 {
		base.Fclk = def.Fclk
	}
	return base
}

// sweepRun collects Run's options.
type sweepRun struct {
	inFlight int
	obs      Observer
	forward  bool
}

// SweepOption configures Sweep.Run.
type SweepOption func(*sweepRun)

// SweepInFlight bounds how many points are submitted to the runner at once
// (default: GOMAXPROCS, capped at the warm groups a Local keeps resident).
// Points of one circuit run as one chain, so at most one point per circuit
// is in flight. The bound should not exceed the runner's queue depth by much
// — a full queue is retried, not fatal, but the retries are wasted round
// trips on a remote transport.
func SweepInFlight(n int) SweepOption {
	return func(r *sweepRun) {
		if n > 0 {
			r.inFlight = n
		}
	}
}

// SweepObserver attaches a progress observer to the sweep: it receives one
// EventSweepPoint per completed point (in completion order — Index restores
// expansion order), one EventSweepDone at the end, and — because points
// complete on concurrent workers — must be safe for concurrent use, the same
// contract Batch observers carry.
func SweepObserver(obs Observer) SweepOption {
	return func(r *sweepRun) { r.obs = obs }
}

// SweepJobEvents additionally forwards every per-job progress event
// (EventMapped, EventMove, EventRoundDone, EventResult) from the runner's
// Watch stream to the sweep observer, interleaved across in-flight points.
// Over a client.Client this streams each job's SSE feed — the same envelopes
// a -progress log carries. Without an observer the option is inert.
func SweepJobEvents(on bool) SweepOption {
	return func(r *sweepRun) { r.forward = on }
}

// Run expands the sweep and executes every point through the runner,
// returning the results in expansion order. Each circuit's points run as one
// sequential chain in expansion order, so points that share a prepared state
// arrive back to back on the runner and its warm groups are never contended;
// distinct circuits run in parallel, at most SweepInFlight at once. A runner
// whose queue is momentarily full is retried. A failing point aborts the
// sweep: the earliest chain's failure is reported, later points of a failed
// chain are skipped, and the returned slice still holds every completed
// point, with nil holes for failed and skipped ones.
//
// Cancellation: when ctx ends, in-flight jobs are cancelled on the runner
// and Run returns ctx.Err(). Points the runner answered from its cache
// complete instantly and are flagged Cached on their status.
func (s Sweep) Run(ctx context.Context, r Runner, opts ...SweepOption) ([]SweepPointResult, error) {
	run := sweepRun{inFlight: min(runtime.GOMAXPROCS(0), warmGroups)}
	for _, opt := range opts {
		opt(&run)
	}
	points, err := s.Points()
	if err != nil {
		return nil, err
	}
	var cached atomic.Int64
	runPoint := func(ctx context.Context, i int) (SweepPointResult, error) {
		st, err := runSweepPoint(ctx, r, points[i], run)
		if err != nil {
			return SweepPointResult{}, err
		}
		res := SweepPointResult{Point: points[i], Status: st}
		if run.obs != nil {
			run.obs.emit(sweepPointEvent(points[i], len(points), st))
		}
		if st.Cached {
			cached.Add(1)
		}
		return res, nil
	}
	// One sequential chain per circuit, chains in parallel. Expansion order
	// groups each circuit's points contiguously with the low rail varying
	// fastest, so a chain walks its voltage axis neighbor to neighbor.
	chains := make([][]int, 0, len(s.Circuits))
	chainOf := map[SweepCircuit]int{}
	for i, p := range points {
		ci, ok := chainOf[p.Circuit]
		if !ok {
			ci = len(chains)
			chainOf[p.Circuit] = ci
			chains = append(chains, nil)
		}
		chains[ci] = append(chains[ci], i)
	}
	results := make([]SweepPointResult, len(points))
	// Distinct chains write distinct slots, so the shared slice needs no
	// lock; failed and skipped slots keep the zero SweepPointResult.
	_, err = BatchMap(ctx, Batch{Workers: run.inFlight}, len(chains),
		func(ctx context.Context, c int) (struct{}, error) {
			for _, i := range chains[c] {
				res, err := runPoint(ctx, i)
				if err != nil {
					return struct{}{}, err
				}
				results[i] = res
			}
			return struct{}{}, nil
		})
	if err != nil {
		// Failed and skipped slots hold the zero SweepPointResult, per the
		// BatchMap contract.
		return results, err
	}
	if run.obs != nil {
		circuits := map[SweepCircuit]struct{}{}
		for _, p := range points {
			circuits[p.Circuit] = struct{}{}
		}
		run.obs.emit(EventSweepDone{
			Points:   len(points),
			Cached:   int(cached.Load()),
			Circuits: len(circuits),
		})
	}
	return results, nil
}

// sweepDrainTimeout bounds how long a completed point waits for the tail of
// its forwarded Watch stream before cutting it. Package variable so the
// stalled-stream regression test can shrink it.
var sweepDrainTimeout = 2 * time.Second

// runSweepPoint submits one point and waits for its terminal status,
// retrying a momentarily full queue and cancelling the job if ctx ends
// first.
func runSweepPoint(ctx context.Context, r Runner, pt SweepPoint, run sweepRun) (*JobStatus, error) {
	var id JobID
	for {
		var err error
		id, err = r.Submit(ctx, pt.Job())
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			return nil, fmt.Errorf("sweep point %d (%s): %w", pt.Index, pt.label(), err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
			//lint:wallclock-ok queue-full retry backoff; pacing only, never in results
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Forward the job's own progress stream when asked. On a terminal job
	// the runner closes the channel and the full tail is forwarded; when
	// Result fails the job may never turn terminal, so the stream is cut
	// instead of hanging the sweep on its drain.
	watchDone := func(bool) {}
	if run.obs != nil && run.forward {
		wctx, wcancel := context.WithCancel(ctx)
		if events, werr := r.Watch(wctx, id); werr == nil {
			fwd := make(chan struct{})
			go func() {
				defer close(fwd)
				for ev := range events {
					run.obs.emit(ev)
				}
			}()
			watchDone = func(jobTerminal bool) {
				if jobTerminal {
					// The runner owes us a closed channel now, but a stalled
					// or severed stream (a remote transport mid-failover, a
					// misbehaving Runner) would otherwise hang the whole
					// sweep on this drain — bound it, then cut the stream.
					select {
					case <-fwd:
						//lint:wallclock-ok bounded watch-drain; liveness guard, never in results
					case <-time.After(sweepDrainTimeout):
					}
				}
				wcancel()
				<-fwd
			}
		} else {
			wcancel()
		}
	}
	st, err := r.Result(ctx, id)
	if err != nil {
		// Best-effort cancel so an abandoned sweep does not leave the runner
		// grinding through the queue; the job's own context is independent
		// of ours, hence the fresh one.
		//lint:ctx-ok best-effort cancel after our ctx already failed; needs a live context
		cctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = r.Cancel(cctx, id)
		cancel()
		watchDone(false)
		return nil, err
	}
	watchDone(true)
	switch st.State {
	case JobDone:
		return st, nil
	case JobCancelled:
		// Prefer the caller's own ctx error when that is what stopped us.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("sweep point %d (%s): job cancelled: %s", pt.Index, pt.label(), st.Error)
	default:
		return nil, fmt.Errorf("sweep point %d (%s): %s", pt.Index, pt.label(), st.Error)
	}
}

// sweepPointEvent builds the progress event for one completed point.
func sweepPointEvent(pt SweepPoint, total int, st *JobStatus) EventSweepPoint {
	name := pt.label()
	if st.Design != nil {
		name = st.Design.Name
	}
	return EventSweepPoint{
		Index:       pt.Index,
		Total:       total,
		Circuit:     name,
		Vhigh:       pt.Config.Vhigh,
		Vlow:        pt.Config.Vlow,
		Rails:       append([]float64(nil), pt.Config.Rails...),
		SlackFactor: pt.Config.SlackFactor,
		SimWords:    pt.Config.SimWords,
		Algorithms:  append([]Algorithm(nil), pt.Algorithms...),
		Cached:      st.Cached,
		Results:     st.Results,
	}
}

// ParetoPoint is one candidate in Pareto-frontier extraction: the three
// objectives the sweep trades off per circuit — total power (minimize),
// worst slack (maximize; the margin that survives further derating or
// process spread), and level-converter count (minimize; LCs are the
// dual-voltage overhead the paper's §2 worries about).
type ParetoPoint struct {
	Power      float64
	WorstSlack float64
	LCs        int
}

// dominates reports a ≼ b with at least one strict inequality: a is no worse
// on every objective and better on one. A NaN objective is never "no worse"
// than anything, so a NaN-carrying point dominates nothing — its frontier
// exclusion is ParetoMask's job, not this comparison's.
func (a ParetoPoint) dominates(b ParetoPoint) bool {
	if !a.valid() {
		// The "no worse on every objective" guard below cannot catch this
		// itself: NaN compares false, so a NaN objective sails through it and
		// could then win on a finite one.
		return false
	}
	if a.Power > b.Power || a.WorstSlack < b.WorstSlack || a.LCs > b.LCs {
		return false
	}
	return a.Power < b.Power || a.WorstSlack > b.WorstSlack || a.LCs < b.LCs
}

// valid reports whether every objective is an ordered number. NaN compares
// false against everything, so without this gate a NaN point would be
// "never dominated" and land on the frontier by comparison accident.
func (a ParetoPoint) valid() bool {
	return !math.IsNaN(a.Power) && !math.IsNaN(a.WorstSlack)
}

// ParetoMask marks the non-dominated members of a candidate set: mask[i] is
// true iff no other point dominates point i. Duplicate objective vectors are
// all kept (none dominates its twin), so every config that achieves a
// frontier trade-off is reported. A point with a NaN objective is
// always-dominated by definition — it never joins the frontier and never
// knocks another point off it. The mask is deterministic in the input order
// alone.
func ParetoMask(pts []ParetoPoint) []bool {
	mask := make([]bool, len(pts))
	for i, p := range pts {
		if !p.valid() {
			continue // NaN objectives: always dominated, never on the frontier
		}
		mask[i] = true
		for j, q := range pts {
			if i != j && q.dominates(p) {
				mask[i] = false
				break
			}
		}
	}
	return mask
}
