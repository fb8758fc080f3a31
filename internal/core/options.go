// Package core implements the paper's gate-level dual-supply-voltage
// algorithms:
//
//   - CVS, the clustered voltage scaling baseline of Usami & Horowitz that
//     the paper re-implements: a reverse-topological traversal from the
//     primary outputs that lowers a gate's supply only when all of its
//     fanouts are already low (or are primary outputs), so the low-voltage
//     gates form a single cluster and no level restoration is needed inside
//     the block;
//   - Dscale (§2), which exploits the remaining slack anywhere in the
//     circuit: candidates that can absorb the Vlow delay penalty are
//     weighted by net power gain and selected with a maximum-weight
//     independent set on the transitive graph so no two selected gates share
//     a path; level converters are inserted at every low→high boundary; and
//   - Gscale (§3), which creates new slack instead: it pushes the
//     time-critical boundary (TCB) toward the primary inputs by up-sizing a
//     minimum-weight separator of the critical path network each iteration,
//     then re-running CVS, within a global area budget.
package core

import (
	"context"
	"time"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
)

// Options configures the scaling algorithms. The defaults reproduce the
// paper's evaluation setup.
type Options struct {
	// Tspec is the timing constraint at every primary output (ns). The
	// paper uses 1.2× the minimum-delay mapping's critical path.
	Tspec float64
	// Eps is the timing slack tolerance (ns); a move must leave at least
	// Eps of slack margin to be accepted.
	Eps float64
	// MaxIter is Gscale's bound on consecutive unsuccessful TCB pushes; the
	// paper uses 10.
	MaxIter int
	// MaxAreaIncrease is Gscale's global area budget as a fraction of the
	// original area; the paper uses 0.10.
	MaxAreaIncrease float64
	// SimWords is the number of 64-vector words used for activity
	// estimation when weighting Dscale candidates.
	SimWords int
	// SimWorkers bounds the word-parallel workers of the compiled logic
	// simulation; 0 means GOMAXPROCS. The worker count never changes any
	// simulated statistic (integer reductions in fixed order), only the
	// wall clock.
	SimWorkers int
	// Seed drives the random-vector simulation.
	Seed uint64
	// Fclk is the clock frequency for power weighting (20 MHz in the paper).
	Fclk float64
	// GreedySelect replaces Dscale's maximum-weight-independent-set
	// selection with a greedy highest-gain-first commit loop. Ablation knob:
	// it quantifies what the paper's MWIS formulation buys.
	GreedySelect bool
	// GreedySizing replaces Gscale's minimum-weight-separator cut with
	// up-sizing the single most profitable critical gate per iteration.
	// Ablation knob for the paper's min-cut formulation.
	GreedySizing bool
	// SelfCheck cross-validates the incremental timing engine against a
	// fresh full analysis at every algorithm checkpoint. Differential-test
	// hook; far too slow for production runs.
	SelfCheck bool
	// Activities, when non-nil, is the per-signal 0→1 switching activity of
	// the input circuit (sim.Result.Act layout) and Dscale uses it instead of
	// running its own simulation; nil makes Dscale simulate. Activities are a property of the logic
	// alone — voltage moves never change them and inserted level converters
	// are buffers that toggle exactly like their source — so a table computed
	// once per circuit serves every voltage point. The slice is never
	// mutated: Dscale extends a copy and returns it in Result.Act.
	Activities []float64
	// Ctx, when non-nil, is checked at every algorithm iteration (every
	// Dscale round, every Gscale push, and periodically inside the CVS
	// sweep); a cancelled or expired context aborts the run with ctx.Err()
	// within one iteration. The observed circuit may carry a partially
	// applied scaling when that happens — callers run algorithms on clones.
	Ctx context.Context
	// Observer, when non-nil, receives a progress Event for every accepted
	// per-gate move and every finished algorithm iteration. It is called
	// synchronously from the algorithm loop; observers must be cheap and
	// must not mutate the circuit.
	Observer Observer

	// evalsBase is the engine's evaluation count at run entry; events and
	// results report deltas against it, so a run on a shared warm engine
	// reports exactly what a run on a fresh engine would. Set by the *On
	// entry points.
	evalsBase int64
}

// EventKind discriminates progress events.
type EventKind uint8

const (
	// EventMove is one accepted per-gate move (a supply lowering).
	EventMove EventKind = iota
	// EventRound is one finished algorithm iteration (a Dscale round or a
	// Gscale TCB push; CVS emits a single round for its one sweep).
	EventRound
)

// Event is a progress notification from an algorithm loop.
type Event struct {
	// Algorithm is "CVS", "Dscale" or "Gscale". CVS runs nested inside
	// Dscale and Gscale report under the outer algorithm's name.
	Algorithm string
	Kind      EventKind
	// Round is the iteration number, starting at 1 (0 = the initial nested
	// CVS clustering of Dscale/Gscale).
	Round int
	// Gate is the moved gate's index (EventMove only).
	Gate int
	// Moves counts the accepted moves of the finished iteration — lowered
	// gates for CVS/Dscale rounds, resized gates for Gscale pushes
	// (EventRound only).
	Moves int
	// LowGates is the current number of ordinary gates at Vlow.
	LowGates int
	// Power is the current total-power estimate in watts, filled when the
	// loop has activity data at hand (Dscale rounds); 0 means "not
	// computed", never "zero power".
	Power float64
	// STAEvals is the cumulative incremental-timing evaluation count.
	STAEvals int64
	// WorstArrival is the current critical-path arrival time (ns).
	WorstArrival float64
}

// Observer receives progress events from an algorithm loop.
type Observer func(Event)

// interrupted returns the context's error, if a context is set and done.
func (o *Options) interrupted() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// emit sends ev to the observer, if one is set.
func (o *Options) emit(ev Event) {
	if o.Observer != nil {
		o.Observer(ev)
	}
}

// DefaultOptions returns the paper's parameters (Tspec must still be set by
// the caller, normally from the mapper's Result).
func DefaultOptions(tspec float64) Options {
	return Options{
		Tspec:           tspec,
		Eps:             1e-9,
		MaxIter:         10,
		MaxAreaIncrease: 0.10,
		SimWords:        256,
		Seed:            1,
		Fclk:            20e6,
	}
}

// Result summarises what a scaling algorithm did to a circuit.
type Result struct {
	// Lowered is the number of ordinary gates now at Vlow.
	Lowered int
	// LCs is the number of level converters present (Dscale only).
	LCs int
	// Sized is the number of gates whose cell size Gscale changed.
	Sized int
	// AreaIncrease is the relative area growth versus the input circuit.
	AreaIncrease float64
	// Iterations counts algorithm iterations (Dscale rounds or Gscale
	// pushes).
	Iterations int
	// TCB holds the final time-critical boundary (gate indices).
	TCB []int
	// STAEvals counts per-gate timing evaluations spent by the incremental
	// engine over the whole run — the cost a full re-analysis per move would
	// multiply by the circuit size.
	STAEvals int64
	// CandEvals counts Dscale candidate-cache re-evaluations (cache
	// misses): gates visited because their timing, loads or neighborhood
	// changed. A full per-round rescan pays live-gates × (Iterations+1)
	// such visits; under the incremental cache, rounds after the first
	// touch only the disturbed region.
	CandEvals int64
	// Act is the run's per-signal activity table — Options.Activities
	// extended by the (aliased) activities of inserted level converters.
	// Set only when Options.Activities was supplied; power.Estimate over it
	// is bit-identical to a fresh simulate-and-estimate of the scaled
	// circuit.
	Act []float64
	// SimTime is the wall clock the run spent in logic simulation (Dscale's
	// activity estimation; zero for the sim-free algorithms).
	SimTime time.Duration
}

// lowEligible reports whether gate gi may legally take the target rail under
// the clustering rule: every consumer is already at or below the target rail
// or a primary output — a consumer on a higher rail cannot accept the reduced
// swing without a level converter, which CVS never inserts. It also reports
// whether the gate borders the existing low cluster or the POs, which feeds
// the paper's TCB definition. At a two-rail library with target VLow this is
// exactly the classic "every consumer is a Vlow gate" rule.
func lowEligible(ckt *netlist.Circuit, fan *netlist.Fanouts, gi int, target cell.VoltLevel) (eligible, borders bool) {
	out := ckt.GateSignal(gi)
	for _, cn := range fan.Conns[out] {
		cg := ckt.Gates[cn.Gate]
		if cg.Volt < target {
			return false, false
		}
	}
	borders = len(fan.Conns[out]) > 0 || len(fan.POs[out]) > 0
	return borders, borders
}
