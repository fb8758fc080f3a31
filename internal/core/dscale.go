package core

import (
	"fmt"
	"slices"
	"time"

	"dualvdd/internal/cell"
	"dualvdd/internal/graph"
	"dualvdd/internal/netlist"
	"dualvdd/internal/power"
	"dualvdd/internal/sim"
	"dualvdd/internal/sta"
)

// weightScale converts power gains in watts to the integer weights the flow
// network uses. 1e12 keeps sub-µW gains well resolved.
const weightScale = 1e12

// maxPins is the widest cell in the library; the bypass worklist packs
// (gate, pin) pairs into gate*maxPins+pin keys.
const maxPins = 4

// candidate is one Dscale candSet entry.
type candidate struct {
	gate     int
	deltaArr float64 // arrival penalty at the gate output if lowered
	lcDelay  float64 // extra level-converter delay on low→high paths
	gain     float64 // net power gain in watts (after LC costs)
	needLC   bool
}

// evalCandidate implements the paper's check_timing plus power weighting for
// one gate: could it demote one rail step within its slack, and what would
// the exact net power gain be once level-restoration costs are charged? It
// reads the live incremental annotation; nothing is recomputed globally.
//
// Under a multi-rail library the candidate move is "demote one rail step"
// (rail i → i+1). Consumers on rails above the target need the restored swing
// and hang off a level converter for the crossing; consumers at or below the
// target (and POs) stay directly connected. The converter is powered at the
// highest rail among the restored consumers, with the pair cell for that
// crossing. A gate already driving a converter is not a candidate: its
// crossing is fixed at insertion (the converter would need rebinding), so the
// gate holds its rail. At two rails all of this collapses to the classic
// VHigh→VLow evaluation, bit for bit.
func evalCandidate(ckt *netlist.Circuit, lib *cell.Library, inc *sta.Incremental,
	act []float64, fclk float64, gi int) (candidate, bool) {
	g := ckt.Gates[gi]
	out := ckt.GateSignal(gi)
	conns := inc.Fanouts().Conns[out]
	newVolt := g.Volt + 1

	// Split consumers: gates above the target rail will hang off a level
	// converter; gates at or below it and POs stay directly connected.
	var highCap float64
	nHigh := 0
	dest := newVolt
	for _, cn := range conns {
		cg := ckt.Gates[cn.Gate]
		if cg.IsLC {
			return candidate{}, false // crossing fixed at insertion; hold the rail
		}
		if cg.Volt < newVolt {
			highCap += cg.Cell.InputCap[cn.Pin]
			nHigh++
			if cg.Volt < dest {
				dest = cg.Volt
			}
		}
	}
	var lc *cell.Cell
	oldLoad := inc.Load[out]
	newLoad := oldLoad
	lcLoad := 0.0
	if nHigh > 0 {
		lc = lib.LevelConverterFor(newVolt, dest)
		newLoad = oldLoad - highCap - lib.WireCapPerFanout*float64(nHigh) +
			lc.InputCap[0] + lib.WireCapPerFanout
		lcLoad = highCap + lib.WireCapPerFanout*float64(nHigh)
	}

	// Timing: the gate's own arrival moves by deltaArr; paths through the
	// level converter additionally pay the converter's delay. Requiring the
	// gate's slack to cover both is conservative (the LC sits on a subset of
	// the fanout paths).
	derate := lib.Derate(newVolt)
	newArr := 0.0
	for pin, s := range g.In {
		a := inc.Arrival[s] + g.Cell.Delay(pin, newLoad, derate)
		if a > newArr {
			newArr = a
		}
	}
	deltaArr := newArr - inc.Arrival[out]
	lcDelay := 0.0
	if nHigh > 0 {
		lcDelay = lc.MaxDelay(lcLoad, lib.Derate(dest))
	}

	// Power: exact local difference under unchanged activities (the level
	// converter is a buffer, so no activity changes anywhere).
	vh, vl := lib.VddOf(g.Volt), lib.VddOf(newVolt)
	a := act[out]
	before := power.Switch(a, fclk, oldLoad+g.Cell.InternalCap, vh)
	after := power.Switch(a, fclk, newLoad+g.Cell.InternalCap, vl)
	lcCost := 0.0
	if nHigh > 0 {
		lcCost = power.Switch(a, fclk, lcLoad+lc.InternalCap, lib.VddOf(dest)) + lib.LCStaticPowerFor(lc)
	}
	gain := before - after - lcCost
	return candidate{gate: gi, deltaArr: deltaArr, lcDelay: lcDelay, gain: gain, needLC: nHigh > 0}, true
}

// dscaleState is the incrementally maintained working set of one Dscale run.
// Everything in it is an exact function of the circuit plus the engine's
// annotation; the change journal (sta.Incremental.DrainChanged) tells it
// which gates to refresh, so each round touches only what the previous
// round's moves disturbed instead of rescanning every gate. verify() checks
// the whole invariant against a from-scratch rebuild under Options.SelfCheck.
type dscaleState struct {
	ckt  *netlist.Circuit
	lib  *cell.Library
	inc  *sta.Incremental
	opts *Options

	// act is the per-signal switching activity, extended (aliased) as level
	// converters are inserted. Activities never change for existing signals.
	act []float64

	// Candidate cache: cand[gi] (guarded by candOK) is the last evaluated
	// candidate decision for gate gi; candValid marks entries whose inputs
	// have not changed since. candEvals counts real evaluations — the work a
	// full rescan pays live-gates×rounds of.
	candValid []bool
	candOK    []bool
	cand      []candidate
	candEvals int64

	// succ is the MWIS adjacency (driver→consumer, in consumer-table order),
	// rebuilt per gate on change instead of per round. weight is the reusable
	// node-weight buffer; weighted lists the entries to zero next round.
	succ     [][]int
	weight   []int64
	weighted []int

	// Running total power (the livePower quantity) maintained per refresh
	// from per-gate contributions, instead of an O(gates) rescan per
	// observer round event.
	powerTotal float64
	contrib    []float64

	// Scratch buffers (steady-state allocation-free).
	drainBuf  []netlist.Signal
	cands     []candidate
	coneSeen  netlist.BitSet
	covered   netlist.BitSet
	coneBuf   []int
	coneStack []int
	chosen    []int
	sorted    []candidate

	// Bypass worklist state: pairIndex maps gate*maxPins+pin to 1+index into
	// pairs while a bypass call is active.
	pairs     []bypassPair
	pairIndex []int32
	lcs       []int
}

// bypassPair is one (low-voltage gate, LC-driven pin) bypass opportunity.
type bypassPair struct {
	gate, pin int
	dirty     bool // eligibility inputs changed since the last check
	done      bool // rewired (or structurally gone)
}

// newDscaleState builds the working set from the post-CVS circuit: full
// candidate invalidation (round one evaluates every gate, like the rescan
// loop did), the complete succ adjacency, and the initial power total summed
// in gate order — the same order livePower uses.
func newDscaleState(ckt *netlist.Circuit, lib *cell.Library, inc *sta.Incremental,
	opts *Options, act []float64) *dscaleState {
	st := &dscaleState{ckt: ckt, lib: lib, inc: inc, opts: opts, act: act}
	st.grow()
	fan := inc.Fanouts()
	for gi, g := range ckt.Gates {
		if g.Dead {
			continue
		}
		for _, cn := range fan.Conns[ckt.GateSignal(gi)] {
			st.succ[gi] = append(st.succ[gi], cn.Gate)
		}
		st.contrib[gi] = st.gateContrib(gi)
		st.powerTotal += st.contrib[gi]
	}
	// CVS ran on the same engine; its changes are already reflected in the
	// freshly built state, so discard the journal backlog.
	st.drainBuf = inc.DrainChanged(st.drainBuf[:0])
	st.drainBuf = st.drainBuf[:0]
	return st
}

// grow extends the per-gate tables after level-converter insertions.
func (st *dscaleState) grow() {
	n := len(st.ckt.Gates)
	for len(st.candValid) < n {
		st.candValid = append(st.candValid, false)
		st.candOK = append(st.candOK, false)
		st.cand = append(st.cand, candidate{})
		st.succ = append(st.succ, nil)
		st.weight = append(st.weight, 0)
		st.contrib = append(st.contrib, 0)
	}
}

// gateContrib is gate gi's share of the livePower total under the current
// annotation: switching power of its output net plus internal power, plus the
// converter static power for LCs. Dead gates contribute nothing.
func (st *dscaleState) gateContrib(gi int) float64 {
	g := st.ckt.Gates[gi]
	if g.Dead {
		return 0
	}
	out := st.ckt.GateSignal(gi)
	vdd := st.lib.VddOf(g.Volt)
	c := power.Switch(st.act[out], st.opts.Fclk, st.inc.Load[out]+g.Cell.InternalCap, vdd)
	if g.IsLC {
		c += st.lib.LCStaticPowerFor(g.Cell)
	}
	return c
}

// refreshGate re-derives everything keyed on gate gi: candidate cache entry
// (invalidated, re-evaluated lazily), succ adjacency and power contribution.
func (st *dscaleState) refreshGate(gi int) {
	st.candValid[gi] = false
	g := st.ckt.Gates[gi]
	st.succ[gi] = st.succ[gi][:0]
	if !g.Dead {
		for _, cn := range st.inc.Fanouts().Conns[st.ckt.GateSignal(gi)] {
			st.succ[gi] = append(st.succ[gi], cn.Gate)
		}
	}
	if nc := st.gateContrib(gi); nc != st.contrib[gi] {
		st.powerTotal += nc - st.contrib[gi]
		st.contrib[gi] = nc
	}
}

// absorb drains the engine's change journal and refreshes the state of every
// gate the changes can influence: the driver of each changed signal (its
// slack, load, consumer set or attributes moved) and the signal's consumers
// (their fanin arrivals moved). The drained buffer is kept for callers that
// layer further invalidation on it (the bypass worklist).
func (st *dscaleState) absorb() {
	st.drainBuf = st.inc.DrainChanged(st.drainBuf[:0])
	st.grow()
	fan := st.inc.Fanouts()
	nSig := st.ckt.NumSignals()
	for _, s := range st.drainBuf {
		if int(s) >= nSig {
			continue // signal rolled back out of existence
		}
		if gi := st.ckt.GateIndex(s); gi >= 0 {
			st.refreshGate(gi)
		}
		for _, cn := range fan.Conns[s] {
			st.candValid[cn.Gate] = false
		}
	}
}

// reeval recomputes gate gi's candidate decision, mirroring the filter chain
// of the original per-round rescan exactly: eligibility, fanout, SlkSet
// membership, positive gain, and the conservative timing check.
func (st *dscaleState) reeval(gi int) {
	st.candEvals++
	st.candValid[gi] = true
	st.candOK[gi] = false
	g := st.ckt.Gates[gi]
	if g.Dead || g.IsLC || g.Volt >= st.lib.Deepest() {
		return
	}
	out := st.ckt.GateSignal(gi)
	if st.inc.Fanouts().Degree(out) == 0 {
		return
	}
	if st.inc.Slack[out] <= st.opts.Eps {
		return // not in SlkSet
	}
	c, ok := evalCandidate(st.ckt, st.lib, st.inc, st.act, st.opts.Fclk, gi)
	if !ok || c.gain <= 0 {
		return
	}
	if st.inc.Slack[out]-(c.deltaArr+c.lcDelay) < st.opts.Eps {
		return
	}
	st.cand[gi] = c
	st.candOK[gi] = true
}

// gather returns the round's candSet in gate order, re-evaluating only the
// invalidated cache entries.
func (st *dscaleState) gather() []candidate {
	st.cands = st.cands[:0]
	for gi := range st.ckt.Gates {
		if !st.candValid[gi] {
			st.reeval(gi)
		}
		if st.candOK[gi] {
			st.cands = append(st.cands, st.cand[gi])
		}
	}
	return st.cands
}

// verify cross-checks every maintained structure against a from-scratch
// rebuild — the dirty-set differential oracle, enabled by Options.SelfCheck.
func (st *dscaleState) verify() error {
	ce := st.candEvals // oracle re-evaluations must not skew the metric
	defer func() { st.candEvals = ce }()
	fan := st.inc.Fanouts()
	total := 0.0
	for gi, g := range st.ckt.Gates {
		// succ must equal a fresh consumer-table walk, element for element
		// (MWIS arc construction is order-sensitive).
		var fresh []int
		if !g.Dead {
			for _, cn := range fan.Conns[st.ckt.GateSignal(gi)] {
				fresh = append(fresh, cn.Gate)
			}
		}
		if !slices.Equal(fresh, st.succ[gi]) {
			return fmt.Errorf("core: Dscale succ[%d] stale: %v vs fresh %v", gi, st.succ[gi], fresh)
		}
		total += st.gateContrib(gi)
		// A valid cache entry must match a fresh evaluation bit for bit.
		if !st.candValid[gi] {
			continue
		}
		wasOK, was := st.candOK[gi], st.cand[gi]
		st.reeval(gi)
		if wasOK != st.candOK[gi] || (wasOK && was != st.cand[gi]) {
			return fmt.Errorf("core: Dscale candidate cache stale at gate %d (%s): %+v/%v vs fresh %+v/%v",
				gi, g.Name, was, wasOK, st.cand[gi], st.candOK[gi])
		}
	}
	// The running power total accumulates float rounding relative to a fresh
	// gate-order sum; it must stay within noise of it.
	if diff := st.powerTotal - total; diff > 1e-9*total || diff < -1e-9*total {
		return fmt.Errorf("core: Dscale running power %.15g drifted from fresh sum %.15g", st.powerTotal, total)
	}
	return nil
}

// DscaleOn runs the paper's §2 algorithm on a mapped circuit: CVS first, then
// repeated rounds of slack harvesting. Each round gathers every high-voltage
// gate whose slack covers the Vlow (plus level-converter) delay penalty and
// whose net power gain is positive, selects a maximum-weight independent set
// of them on the circuit's transitive graph — so per-round penalties can
// never accumulate along one path — applies Vlow, inserts level converters
// at low→high boundaries, and re-times incrementally. It stops when candSet
// is empty.
//
// Candidates are maintained incrementally: a round re-evaluates only gates
// whose timing, load, consumer set or neighborhood changed since the last
// round (per the engine's change journal), which drops per-round evaluation
// work from live-gates to the size of the disturbed region while producing
// the exact decisions of a full rescan.
//
// The caller supplies an incremental engine whose annotation is already
// settled for ckt under lib. With Options.Activities set the run is
// simulation-free. Like every entry point it keeps the engine's undo journal
// intact, so the caller's Checkpoint mark survives and one Rollback undoes
// the whole run.
func DscaleOn(inc *sta.Incremental, ckt *netlist.Circuit, lib *cell.Library, opts Options) (*Result, error) {
	areaBefore := ckt.Area()
	opts.evalsBase = inc.Evals()
	if _, err := cvsOn(inc, ckt, &opts, "Dscale", 0); err != nil {
		return nil, err
	}
	// Switching activities are a property of the logic alone: voltage moves
	// never change them, and the level converters inserted below are buffers
	// whose output toggles exactly like their source. One simulation serves
	// the whole run; LC activities are aliased on insertion. A caller-supplied
	// table (Options.Activities) serves even wider — one simulation per
	// circuit across a whole sweep. The three-index slice expression caps the
	// shared table's capacity so the aliasing appends below copy instead of
	// scribbling on it.
	var act []float64
	var simTime time.Duration
	if opts.Activities != nil {
		act = opts.Activities[:len(opts.Activities):len(opts.Activities)]
	} else {
		simStart := time.Now() //lint:wallclock-ok timing metric only; never feeds results
		simRes, err := sim.RunParallel(ckt, opts.SimWords, opts.Seed, opts.SimWorkers)
		if err != nil {
			return nil, err
		}
		simTime = time.Since(simStart) //lint:wallclock-ok timing metric only; never feeds results
		act = simRes.Act
	}
	st := newDscaleState(ckt, lib, inc, &opts, act)
	res := &Result{}
	for {
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		if opts.SelfCheck {
			if err := inc.Check(1e-9); err != nil {
				return nil, err
			}
			if err := st.verify(); err != nil {
				return nil, err
			}
		}

		// getSlkSet + check_timing + weight_with_power_gain, from the cache.
		cands := st.gather()
		if len(cands) == 0 {
			break
		}

		var lowSet []int
		if opts.GreedySelect {
			// Ablation: greedy highest-gain-first, restricted to a mutually
			// path-independent set so the per-candidate timing checks stay
			// valid (checked via reachability, no optimality guarantee).
			lowSet = st.greedyIndependent(cands)
		} else {
			// MWIS over the gate-level DAG: node weights are the power
			// gains, edges are the circuit's driver→consumer relation, so
			// independence means "no two selected gates on a common path".
			// The adjacency is maintained across rounds; only the weights
			// are re-stamped.
			for _, gi := range st.weighted {
				st.weight[gi] = 0
			}
			st.weighted = st.weighted[:0]
			for _, c := range cands {
				w := int64(c.gain * weightScale)
				if w <= 0 {
					w = 1
				}
				st.weight[c.gate] = w
				st.weighted = append(st.weighted, c.gate)
			}
			lowSet, _ = graph.MaxWeightAntichain(len(ckt.Gates), st.succ, st.weight)
		}
		if len(lowSet) == 0 {
			break
		}
		for _, gi := range lowSet {
			if err := st.applyLow(gi); err != nil {
				return nil, err
			}
			opts.emit(Event{Algorithm: "Dscale", Kind: EventMove, Round: res.Iterations + 1, Gate: gi})
		}
		st.bypassRedundantLCs()
		res.Iterations++

		// update_timing plus a safety net: the per-candidate check is
		// conservative, so the constraint must still hold.
		if !inc.Meets(opts.Eps) {
			return nil, fmt.Errorf("core: Dscale violated timing (%.6f > %.6f)", inc.WorstArrival(), opts.Tspec)
		}
		if opts.Observer != nil {
			opts.emit(Event{
				Algorithm: "Dscale", Kind: EventRound, Round: res.Iterations,
				Moves: len(lowSet), LowGates: ckt.NumLowGates(),
				Power:    st.powerTotal,
				STAEvals: inc.Evals() - opts.evalsBase, WorstArrival: inc.WorstArrival(),
			})
		}
	}
	res.Lowered = ckt.NumLowGates()
	res.LCs = ckt.NumLCs()
	res.AreaIncrease = ckt.Area()/areaBefore - 1
	res.STAEvals = inc.Evals() - opts.evalsBase
	res.CandEvals = st.candEvals
	res.SimTime = simTime
	if opts.Activities != nil {
		res.Act = st.act
	}
	return res, nil
}

// livePower sums the current total power (switching + internal + LC static)
// from the engine's live load annotation and the run's activity table — the
// same quantity power.Estimate reports, without rebuilding fanouts. The loop
// maintains it as a running total (dscaleState.powerTotal); this full sum
// remains as the oracle verify() compares against.
func livePower(ckt *netlist.Circuit, lib *cell.Library, inc *sta.Incremental, act []float64, fclk float64) float64 {
	total := 0.0
	for gi, g := range ckt.Gates {
		if g.Dead {
			continue
		}
		out := ckt.GateSignal(gi)
		vdd := lib.VddOf(g.Volt)
		total += power.Switch(act[out], fclk, inc.Load[out]+g.Cell.InternalCap, vdd)
		if g.IsLC {
			total += lib.LCStaticPowerFor(g.Cell)
		}
	}
	return total
}

// greedyIndependent picks candidates highest-gain-first (ties broken by gate
// index, so the order is total), discarding any that shares a path with an
// earlier pick. Conflict tracking uses reusable bitsets over the gate space
// instead of per-call maps. Used only by the GreedySelect ablation.
func (st *dscaleState) greedyIndependent(cands []candidate) []int {
	st.sorted = append(st.sorted[:0], cands...)
	slices.SortFunc(st.sorted, func(a, b candidate) int {
		switch {
		case a.gain > b.gain:
			return -1
		case a.gain < b.gain:
			return 1
		}
		return a.gate - b.gate
	})
	n := len(st.ckt.Gates)
	st.covered.Grow(n)
	st.covered.Reset()
	st.coneSeen.Grow(n)
	st.chosen = st.chosen[:0]
	fan := st.inc.Fanouts()
	for _, c := range st.sorted {
		if st.covered.Has(c.gate) {
			continue // on a path below some chosen gate (or chosen itself)
		}
		st.coneSeen.Reset()
		st.coneBuf, st.coneStack = fan.AppendFanoutCone(st.ckt, c.gate, &st.coneSeen, st.coneBuf[:0], st.coneStack)
		conflict := false
		for _, g := range st.chosen {
			if st.coneSeen.Has(g) {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		st.chosen = append(st.chosen, c.gate)
		for _, g := range st.coneBuf {
			st.covered.Set(g)
		}
	}
	out := append([]int(nil), st.chosen...)
	slices.Sort(out)
	return out
}

// applyLow demotes gate gi one rail step and inserts a level converter in
// front of the consumers left above the new rail ("insert necessary level
// restoration circuits"), re-timing incrementally through the engine. One
// converter per net is shared by all restored consumers; it carries the pair
// cell for the crossing and is powered at the highest restored consumer's
// rail. The activity table gains the converter's (aliased) activity, and the
// state absorbs the change journal so the touched region is re-evaluated next
// round.
func (st *dscaleState) applyLow(gi int) error {
	ckt, lib, inc := st.ckt, st.lib, st.inc
	g := ckt.Gates[gi]
	if g.Volt >= lib.Deepest() {
		return fmt.Errorf("core: gate %s already at the deepest rail", g.Name)
	}
	newVolt := g.Volt + 1
	out := ckt.GateSignal(gi)
	var highConns []netlist.Conn
	dest := newVolt
	for _, cn := range inc.Fanouts().Conns[out] {
		if cg := ckt.Gates[cn.Gate]; cg.Volt < newVolt {
			highConns = append(highConns, cn)
			if cg.Volt < dest {
				dest = cg.Volt
			}
		}
	}
	inc.SetVolt(gi, newVolt)
	if len(highConns) == 0 {
		st.absorb()
		return nil
	}
	lcIdx, lcSig := inc.AddGate(fmt.Sprintf("$lc_%s", g.Name), lib.LevelConverterFor(newVolt, dest), out)
	lcGate := ckt.GateOf(lcSig)
	lcGate.IsLC = true
	if dest != cell.VHigh {
		inc.SetVolt(lcIdx, dest)
	}
	st.act = append(st.act, st.act[out]) // the converter toggles with its source
	for _, cn := range highConns {
		if err := inc.RewirePin(cn.Gate, cn.Pin, lcSig); err != nil {
			return err
		}
	}
	st.absorb()
	return nil
}

// bypassRedundantLCs reconnects low-voltage gates that are fed through a
// level converter directly to the converter's low-voltage source (a low gate
// needs no restored swing), then deletes converters with no remaining
// consumers. Each bypass is accepted only if the source net's slack absorbs
// its load change, so timing stays safe; the engine re-times each rewire in
// cone-local work.
//
// The candidate (gate, pin) pairs are collected once and then processed as a
// worklist: a pair whose eligibility check fails stays parked until the nets
// its check reads are touched by a later rewire or converter removal (tracked
// through the change journal), instead of being rescanned with the whole
// gate list after every accepted rewire. The accepted-rewire order — always
// the lowest (gate, pin) pair that passes, one rewire per sweep, converters
// collected between rewires in gate order — is exactly the order of the
// original restart-the-scan loop, so the resulting circuits are identical.
func (st *dscaleState) bypassRedundantLCs() {
	ckt, inc := st.ckt, st.inc
	fan := inc.Fanouts()

	// Seed the worklist: every LC-driven pin of a live low-voltage gate, in
	// (gate, pin) order, plus the live converters for the removal sweeps.
	// Rewires only ever detach pins from converters, so no new pairs (and no
	// new converters) can appear while the worklist drains.
	st.pairs = st.pairs[:0]
	st.lcs = st.lcs[:0]
	if need := len(ckt.Gates) * maxPins; cap(st.pairIndex) < need {
		st.pairIndex = make([]int32, need)
	} else {
		st.pairIndex = st.pairIndex[:need]
		for i := range st.pairIndex {
			st.pairIndex[i] = 0
		}
	}
	for gIdx, g := range ckt.Gates {
		if g.Dead {
			continue
		}
		if g.IsLC {
			st.lcs = append(st.lcs, gIdx)
			continue
		}
		if g.Volt == cell.VHigh {
			continue
		}
		if len(g.In) > maxPins {
			// The pair keys below alias across gates beyond maxPins pins;
			// the library has no such cell (sim.Compile enforces the same
			// bound on its tape).
			panic(fmt.Sprintf("core: gate %s has %d pins, bypass worklist limit is %d", g.Name, len(g.In), maxPins))
		}
		for pin, s := range g.In {
			drv := ckt.GateOf(s)
			if drv == nil || !drv.IsLC || drv.Dead {
				continue
			}
			st.pairs = append(st.pairs, bypassPair{gate: gIdx, pin: pin, dirty: true})
			st.pairIndex[gIdx*maxPins+pin] = int32(len(st.pairs))
		}
	}

	// Bounded fixpoint (each pass either retires a pair or terminates); the
	// outer Dscale round loop polls opts.interrupted() every iteration, so
	// the one-iteration cancellation contract is kept there.
	//lint:ctx-ok bounded fixpoint; outer round loop polls interrupted()
	for {
		changed := false
		// Scan sweep: apply the first eligible pending pair.
		for i := range st.pairs {
			pr := &st.pairs[i]
			if pr.done || !pr.dirty {
				continue
			}
			if !st.tryBypass(pr.gate, pr.pin) {
				pr.dirty = false
				continue
			}
			pr.done = true
			st.absorbBypass()
			changed = true
			// One rewire at a time: loads moved, so the engine's fresh
			// state must back the next decision.
			break
		}
		// Removal sweep, in gate order: converters nobody listens to anymore.
		for _, gi := range st.lcs {
			g := ckt.Gates[gi]
			if !g.Dead && g.IsLC && fan.Degree(ckt.GateSignal(gi)) == 0 {
				if err := inc.KillGate(gi); err == nil {
					st.absorbBypass()
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// tryBypass checks one pair's eligibility against the live annotation and
// applies the rewire when it passes. The checks mirror the original scan. A
// reduced-rail consumer can bypass its converter only when the converter's
// source sits at or above the consumer's own rail — the unrestored swing must
// still cover the consumer's supply (always true in the two-rail case, where
// both are VLow).
func (st *dscaleState) tryBypass(gIdx, pin int) bool {
	ckt, lib, inc := st.ckt, st.lib, st.inc
	g := ckt.Gates[gIdx]
	if g.Dead || g.Volt == cell.VHigh || g.IsLC {
		return false
	}
	drv := ckt.GateOf(g.In[pin])
	if drv == nil || !drv.IsLC || drv.Dead {
		return false
	}
	src := drv.In[0]
	srcGate := ckt.GateOf(src)
	if srcGate == nil {
		return false
	}
	if srcGate.Volt > g.Volt {
		return false // source swing below the consumer's rail; keep the converter
	}
	// Load change on the source net: it gains this consumer pin (the
	// converter stays until it loses every consumer).
	dLoad := g.Cell.InputCap[pin] + lib.WireCapPerFanout
	srcGi := ckt.GateIndex(src)
	newArr := inc.GateArrivalWithCell(srcGi, srcGate.Cell, dLoad)
	if newArr-inc.Arrival[src] >= inc.Slack[src]-st.opts.Eps {
		return false
	}
	return inc.RewirePin(gIdx, pin, src) == nil
}

// markPair re-arms a parked pair whose eligibility inputs were touched.
func (st *dscaleState) markPair(gIdx, pin int) {
	if pi := st.pairIndex[gIdx*maxPins+pin]; pi > 0 {
		st.pairs[pi-1].dirty = true
	}
}

// touchBypassNet re-arms every pair whose check reads net x: pairs whose pin
// hangs off x when x is a converter output, and — when x feeds converters —
// the pairs hanging off those converters (x is their source net, whose
// slack, arrival and load the check consumes).
func (st *dscaleState) touchBypassNet(x netlist.Signal) {
	ckt := st.ckt
	fan := st.inc.Fanouts()
	if d := ckt.GateOf(x); d != nil && d.IsLC && !d.Dead {
		for _, cn := range fan.Conns[x] {
			st.markPair(cn.Gate, cn.Pin)
		}
	}
	for _, cn := range fan.Conns[x] {
		c := ckt.Gates[cn.Gate]
		if !c.IsLC || c.Dead {
			continue
		}
		for _, cn2 := range fan.Conns[ckt.GateSignal(cn.Gate)] {
			st.markPair(cn2.Gate, cn2.Pin)
		}
	}
}

// absorbBypass is absorb plus pair re-arming: for every changed signal s, the
// pairs reading s directly (as source or converter net) and the pairs whose
// source gate consumes s (their hypothetical arrival reads s through the
// source gate's fanin) are marked dirty.
func (st *dscaleState) absorbBypass() {
	st.absorb()
	fan := st.inc.Fanouts()
	nSig := st.ckt.NumSignals()
	for _, s := range st.drainBuf {
		if int(s) >= nSig {
			continue
		}
		st.touchBypassNet(s)
		for _, cn := range fan.Conns[s] {
			st.touchBypassNet(st.ckt.GateSignal(cn.Gate))
		}
	}
}
