package core

import (
	"sort"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sta"
)

// CVSResult reports one CVS run.
type CVSResult struct {
	// Lowered is the number of gates this run moved to Vlow.
	Lowered int
	// TCB is the time-critical boundary: gates that border the low cluster
	// (or the POs) and would violate timing if scaled (paper §2).
	TCB []int
}

// CVS runs clustered voltage scaling: a single reverse-topological sweep from
// the primary outputs (the breadth-first traversal of Usami & Horowitz). A
// gate is examined only once all of its fanouts have been decided; it takes
// Vlow when the incurred delay fits its slack, otherwise it stays high and
// joins the TCB. CVS may be called again after the circuit gains slack (this
// is how Gscale pushes the TCB): already-low gates are kept and the cluster
// is extended from its current boundary.
func CVS(ckt *netlist.Circuit, lib *cell.Library, tspec, eps float64) (*CVSResult, error) {
	inc, err := sta.NewIncremental(ckt, lib, tspec)
	if err != nil {
		return nil, err
	}
	opts := DefaultOptions(tspec)
	opts.Eps = eps
	return cvsOn(inc, ckt, &opts, "CVS", 1)
}

// ctxStride is how many gates the CVS sweep examines between context checks;
// the sweep is a single algorithm iteration, so this bounds cancellation
// latency well below one iteration on large circuits.
const ctxStride = 256

// cvsOn is CVS on a live incremental engine, so Gscale's repeated TCB pushes
// and Dscale's initial clustering share one timing state. Each accepted move
// re-times only the affected cones (the paper's update_timing) instead of the
// whole circuit. Progress events report under algo (the outer algorithm when
// nested) with the given round number.
//
// Under a multi-rail library each gate is demoted one rail step at a time
// while the clustering rule holds at the next step (every consumer already at
// or below the target rail — crossing a rail boundary downward would need a
// level converter, which CVS never inserts) and the step's delay fits the
// slack. At a two-rail library the loop degenerates to the classic single
// VHigh→VLow decision, bit for bit.
func cvsOn(inc *sta.Incremental, ckt *netlist.Circuit, opts *Options, algo string, round int) (*CVSResult, error) {
	res := &CVSResult{}
	order := inc.Order()
	fan := inc.Fanouts()
	deepest := inc.Library().Deepest()
	for i := len(order) - 1; i >= 0; i-- {
		if i%ctxStride == 0 {
			if err := opts.interrupted(); err != nil {
				return nil, err
			}
		}
		gi := order[i]
		g := ckt.Gates[gi]
		if g.Dead || g.IsLC || g.Volt >= deepest {
			continue
		}
		for g.Volt < deepest {
			eligible, _ := lowEligible(ckt, fan, gi, g.Volt+1)
			if !eligible {
				break
			}
			out := ckt.GateSignal(gi)
			delta := inc.DeltaStep(gi)
			if inc.Slack[out]-delta < opts.Eps {
				res.TCB = append(res.TCB, gi)
				break
			}
			// update_timing: arrivals grow downstream and required times
			// shrink upstream, so gates examined later (our fanins) see
			// fresh slacks.
			inc.SetVolt(gi, g.Volt+1)
			res.Lowered++
			opts.emit(Event{Algorithm: algo, Kind: EventMove, Round: round, Gate: gi})
		}
	}
	sort.Ints(res.TCB)
	return res, nil
}

// RunCVSOn applies CVS once and reports circuit-level results, for symmetric
// use with DscaleOn and GscaleOn. The caller supplies an incremental engine
// whose annotation is already settled for ckt under lib; the run never
// commits the engine's undo journal, so a Checkpoint mark taken before the
// run survives it and one Rollback restores the pre-run circuit — which is
// how one baseline engine serves many runs. Evaluation counts in events and
// the Result are deltas from run entry, so a run on a shared engine reports
// exactly what a run on a fresh one would.
func RunCVSOn(inc *sta.Incremental, ckt *netlist.Circuit, lib *cell.Library, opts Options) (*Result, error) {
	areaBefore := ckt.Area()
	opts.evalsBase = inc.Evals()
	r, err := cvsOn(inc, ckt, &opts, "CVS", 1)
	if err != nil {
		return nil, err
	}
	if err := selfCheck(inc, opts); err != nil {
		return nil, err
	}
	opts.emit(Event{
		Algorithm: "CVS", Kind: EventRound, Round: 1, Moves: r.Lowered,
		LowGates: ckt.NumLowGates(), STAEvals: inc.Evals() - opts.evalsBase, WorstArrival: inc.WorstArrival(),
	})
	res := &Result{
		Lowered:      ckt.NumLowGates(),
		LCs:          ckt.NumLCs(),
		AreaIncrease: ckt.Area()/areaBefore - 1,
		Iterations:   1,
		TCB:          r.TCB,
		STAEvals:     inc.Evals() - opts.evalsBase,
	}
	if opts.Activities != nil {
		res.Act = opts.Activities
	}
	return res, nil
}

// selfCheck cross-validates the incremental engine against a fresh full
// analysis when Options.SelfCheck is set — the differential harness hook.
func selfCheck(inc *sta.Incremental, opts Options) error {
	if !opts.SelfCheck {
		return nil
	}
	return inc.Check(1e-9)
}
