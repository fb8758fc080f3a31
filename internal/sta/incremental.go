package sta

import (
	"fmt"
	"math"
	"sort"

	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
)

// Incremental is a stateful timing analysis that stays consistent across
// single-gate mutations without recomputing the whole circuit. After a
// voltage, cell, wiring or structural change it re-propagates arrival times
// event-driven through the affected fanout cone and required times through
// the affected fanin cone, processing each gate at most once per wave in
// topological priority order.
//
// Every quantity is computed with exactly the same formula and operand order
// as Analyze, so the incremental annotation is bit-identical to a fresh full
// analysis at every settled point — Analyze stays the reference oracle (see
// Check), and algorithms driven by either produce identical decisions.
//
// All circuit mutations must go through the engine (SetVolt, SetCell,
// RewirePin, AddGate, KillGate); mutating the circuit directly invalidates
// it. Checkpoint/Rollback give transactional apply/undo: candidate moves can
// be applied, measured, and reverted in time proportional to the touched
// cone, never the circuit.
type Incremental struct {
	ckt   *netlist.Circuit
	lib   *cell.Library
	tspec float64

	// Arrival, Required, Slack and Load are live annotations indexed by
	// signal, maintained equal to what Analyze would produce on the current
	// circuit. Callers may read them; writing them is undefined behaviour.
	Arrival  []float64
	Required []float64
	Slack    []float64
	Load     []float64

	worst float64
	fan   *netlist.Fanouts

	// prio is a topological numbering of gates: strictly increasing along
	// every driver→consumer edge. Heap-ordered propagation by prio visits
	// each gate at most once per wave.
	prio       []float64
	order      []int
	orderDirty bool

	fheap, bheap []int
	inF, inB     []bool
	touched      []netlist.Signal
	poDirty      bool

	journal []undoRec
	evals   int64

	// changed is the change journal: every signal whose annotation values,
	// consumer set or driver attributes (voltage, cell, liveness) changed
	// since the last DrainChanged, deduplicated via inChg. Incremental
	// consumers (Dscale's candidate cache, its bypass worklist, the running
	// power total) key their invalidation off it.
	changed []netlist.Signal
	inChg   []bool
}

// Mark is a journal position returned by Checkpoint and consumed by Rollback.
type Mark int

type undoKind uint8

const (
	recArrival undoKind = iota
	recRequired
	recSlack
	recLoad
	recWorst
	recVolt
	recCell
	recPin
	recAdd
	recDead
)

// undoRec is one journaled mutation. Runs keep their whole journal (a
// Checkpoint taken before a run must survive it), so the record is packed
// to 32 bytes: indices fit int32 and a rail level fits a byte.
type undoRec struct {
	f    float64    // old annotation value (arrival, required, slack, load, worst)
	c    *cell.Cell // old cell (recCell)
	a    int32      // signal or gate index
	b    int32      // pin (recPin)
	sig  int32      // old driver (recPin)
	kind undoKind
	v    uint8 // old rail level (recVolt)
}

// NewIncremental runs one full analysis and wraps it in an incremental
// engine.
func NewIncremental(ckt *netlist.Circuit, lib *cell.Library, tspec float64) (*Incremental, error) {
	t, err := Analyze(ckt, lib, tspec)
	if err != nil {
		return nil, err
	}
	inc := &Incremental{
		ckt:      ckt,
		lib:      lib,
		tspec:    tspec,
		Arrival:  t.Arrival,
		Required: t.Required,
		Slack:    t.Slack,
		Load:     t.Load,
		worst:    t.WorstArrival,
		fan:      t.fan,
		prio:     make([]float64, len(ckt.Gates)),
		order:    t.order,
		inF:      make([]bool, len(ckt.Gates)),
		inB:      make([]bool, len(ckt.Gates)),
		inChg:    make([]bool, ckt.NumSignals()),
	}
	for i := range inc.prio {
		inc.prio[i] = -1 // dead gates never propagate
	}
	for i, gi := range t.order {
		inc.prio[gi] = float64(i)
	}
	return inc, nil
}

// Tspec returns the timing constraint the engine analyses against.
func (t *Incremental) Tspec() float64 { return t.tspec }

// Library returns the cell library the engine times against.
func (t *Incremental) Library() *cell.Library { return t.lib }

// SetLibrary swaps the engine's library without re-analysing. It is only
// legal when the swap preserves the annotation bit for bit: the new library
// must share the old one's cell data and wire parameters (cell.Library.AtVlow
// and AtRails guarantee this) and every live gate must sit at VHigh with no
// level converters present — at that baseline the derate of every instance is
// exactly 1.0 under any reduced-rail table, so arrivals, requireds, slacks
// and loads are independent of the rails below the nominal one. A warm sweep
// calls this between points to retarget one baseline engine across its VDDL
// (or rail-table) axis. The engine checks the gate
// condition and refuses the swap otherwise.
func (t *Incremental) SetLibrary(lib *cell.Library) error {
	if lib.Vhigh != t.lib.Vhigh || lib.WireCapPerFanout != t.lib.WireCapPerFanout ||
		lib.POLoadCap != t.lib.POLoadCap {
		return fmt.Errorf("sta: SetLibrary would change high-rail timing parameters")
	}
	for _, g := range t.ckt.Gates {
		if !g.Dead && (g.Volt != cell.VHigh || g.IsLC) {
			return fmt.Errorf("sta: SetLibrary on a non-baseline circuit (gate %s is %s/LC=%v)",
				g.Name, g.Volt, g.IsLC)
		}
	}
	t.lib = lib
	return nil
}

// WorstArrival returns the latest primary-output arrival time.
func (t *Incremental) WorstArrival() float64 { return t.worst }

// Meets reports whether every PO meets the constraint within eps.
func (t *Incremental) Meets(eps float64) bool { return t.worst <= t.tspec+eps }

// Fanouts exposes the live consumer table the engine maintains.
func (t *Incremental) Fanouts() *netlist.Fanouts { return t.fan }

// Evals returns the number of per-gate timing recomputations performed so
// far, the work metric a full re-analysis pays n of per mutation.
func (t *Incremental) Evals() int64 { return t.evals }

// Order returns the live gates in a topological order consistent with the
// engine's propagation priorities. Before any structural change this is
// exactly the order Analyze uses.
func (t *Incremental) Order() []int {
	if !t.orderDirty {
		return t.order
	}
	order := make([]int, 0, len(t.ckt.Gates))
	for gi, g := range t.ckt.Gates {
		// prio < 0 marks gates that were already dead at construction; they
		// were absent from the original order and must stay absent from any
		// rebuild (a Rollback-revived gate keeps its non-negative prio).
		if !g.Dead && t.prio[gi] >= 0 {
			order = append(order, gi)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return t.prio[order[i]] < t.prio[order[j]] })
	t.order = order
	t.orderDirty = false
	return t.order
}

// mark records s in the change journal (deduplicated until the next drain).
func (t *Incremental) mark(s netlist.Signal) {
	if int(s) < len(t.inChg) && !t.inChg[s] {
		t.inChg[s] = true
		t.changed = append(t.changed, s)
	}
}

// markGate records a gate's neighborhood in the change journal: its output
// signal (attributes or liveness changed) and its fanin signals (their
// consumer composition changed).
func (t *Incremental) markGate(gi int) {
	t.mark(t.ckt.GateSignal(gi))
	for _, s := range t.ckt.Gates[gi].In {
		t.mark(s)
	}
}

// DrainChanged appends the change journal accumulated since the last drain to
// buf and resets the journal, returning the extended buf (so steady-state
// callers allocate nothing). The journal is a conservative superset: a
// drained signal's arrival, required, slack or load value, its consumer set,
// or its driving gate's voltage, cell or liveness may have changed — spurious
// entries are possible, omissions are not. Mutations rolled back since the
// last drain still appear (their values moved and moved back); entries may
// reference signals beyond the current NumSignals after a Rollback of an
// AddGate, which callers must skip.
func (t *Incremental) DrainChanged(buf []netlist.Signal) []netlist.Signal {
	for _, s := range t.changed {
		if int(s) < len(t.inChg) {
			t.inChg[s] = false
		}
		buf = append(buf, s)
	}
	t.changed = t.changed[:0]
	return buf
}

// GateArrival recomputes gate gi's output arrival under a hypothetical
// voltage level (the paper's check_timing primitive).
func (t *Incremental) GateArrival(gi int, volt cell.VoltLevel) float64 {
	return gateArrivalAt(t.ckt, t.Arrival, t.Load, gi, t.ckt.Gates[gi].Cell, t.lib.Derate(volt), 0)
}

// DeltaLow returns the arrival increase at gi's output if the gate alone
// moved to VLow.
func (t *Incremental) DeltaLow(gi int) float64 {
	out := t.ckt.GateSignal(gi)
	return t.GateArrival(gi, cell.VLow) - t.Arrival[out]
}

// DeltaStep returns the arrival increase at gi's output if the gate alone
// demoted one rail step (its current level plus one). At a two-rail library
// a VHigh gate's step is exactly DeltaLow.
func (t *Incremental) DeltaStep(gi int) float64 {
	out := t.ckt.GateSignal(gi)
	return t.GateArrival(gi, t.ckt.Gates[gi].Volt+1) - t.Arrival[out]
}

// GateArrivalWithCell recomputes gi's output arrival as if bound to cl with
// the output load adjusted by dLoad.
func (t *Incremental) GateArrivalWithCell(gi int, cl *cell.Cell, dLoad float64) float64 {
	return gateArrivalAt(t.ckt, t.Arrival, t.Load, gi, cl, t.lib.Derate(t.ckt.Gates[gi].Volt), dLoad)
}

// SetVolt moves gate gi to the given supply rail and re-times the affected
// cones.
func (t *Incremental) SetVolt(gi int, v cell.VoltLevel) {
	g := t.ckt.Gates[gi]
	if g.Volt == v {
		return
	}
	t.journal = append(t.journal, undoRec{kind: recVolt, a: int32(gi), v: uint8(g.Volt)})
	g.Volt = v
	// The voltage move itself is journaled even when no timing value shifts:
	// a consumer's rail decides whether its driver would need a level
	// converter, so driver-side caches keyed on the fanin nets must see it.
	t.markGate(gi)
	t.pushF(gi)
	t.pushB(gi)
	t.settle()
}

// SetCell rebinds gate gi to cl (same function, different size), adjusting
// the fanin nets' loads for the new pin capacitances and re-timing.
func (t *Incremental) SetCell(gi int, cl *cell.Cell) {
	g := t.ckt.Gates[gi]
	if g.Cell == cl {
		return
	}
	if cl.NumInputs() != g.Cell.NumInputs() {
		panic(fmt.Sprintf("sta: SetCell %s: %d-input cell for %d pins", g.Name, cl.NumInputs(), len(g.In)))
	}
	t.journal = append(t.journal, undoRec{kind: recCell, a: int32(gi), c: g.Cell})
	g.Cell = cl
	t.markGate(gi)
	for _, s := range g.In {
		t.reload(s)
	}
	t.pushF(gi)
	t.pushB(gi)
	t.settle()
}

// RewirePin reconnects input pin of gate gi to signal to. The new driver must
// precede gi topologically (rewiring to a signal downstream of gi would
// create a cycle or invalidate the propagation priorities).
func (t *Incremental) RewirePin(gi, pin int, to netlist.Signal) error {
	g := t.ckt.Gates[gi]
	from := g.In[pin]
	if from == to {
		return nil
	}
	if di := t.ckt.GateIndex(to); di >= 0 && t.prio[di] >= t.prio[gi] {
		return fmt.Errorf("sta: RewirePin %s pin %d to %s would break topological order",
			g.Name, pin, t.ckt.SignalName(to))
	}
	t.journal = append(t.journal, undoRec{kind: recPin, a: int32(gi), b: int32(pin), sig: int32(from)})
	g.In[pin] = to
	// Both nets' consumer sets changed even if their loads happen not to.
	t.mark(from)
	t.mark(to)
	cn := netlist.Conn{Gate: gi, Pin: pin}
	t.fan.Disconnect(from, cn)
	t.fan.Connect(to, cn)
	t.reload(from)
	t.reload(to)
	t.rerequire(from)
	t.rerequire(to)
	t.pushF(gi)
	t.pushB(gi)
	t.settle()
	return nil
}

// AddGate appends a new gate through the engine (the structural primitive
// behind level-converter insertion) and times it in. Its consumers are wired
// up afterwards with RewirePin.
func (t *Incremental) AddGate(name string, cl *cell.Cell, in ...netlist.Signal) (int, netlist.Signal) {
	gi, out := t.ckt.AddGate(name, cl, in...)
	t.journal = append(t.journal, undoRec{kind: recAdd, a: int32(gi)})
	t.Arrival = append(t.Arrival, 0)
	t.Required = append(t.Required, math.Inf(1))
	t.Slack = append(t.Slack, math.Inf(1))
	t.Load = append(t.Load, 0)
	t.fan.Grow(t.ckt.NumSignals())
	t.inF = append(t.inF, false)
	t.inB = append(t.inB, false)
	t.inChg = append(t.inChg, false)
	// Priority strictly after every fanin driver but strictly before the next
	// integer: original gates carry integer priorities, so the new gate sorts
	// before every pre-existing consumer of its sources (which may then be
	// rewired onto it), and chained insertions keep halving the remaining gap
	// instead of colliding with an existing gate.
	base := -1.0
	for _, s := range in {
		if di := t.ckt.GateIndex(s); di >= 0 && t.prio[di] > base {
			base = t.prio[di]
		}
	}
	t.prio = append(t.prio, base+(math.Floor(base)+1-base)/2)
	t.orderDirty = true
	g := t.ckt.Gates[gi]
	for pin, s := range g.In {
		t.fan.Connect(s, netlist.Conn{Gate: gi, Pin: pin})
	}
	for _, s := range g.In {
		t.reload(s)
		t.rerequire(s)
	}
	t.markGate(gi)
	t.pushF(gi)
	t.settle()
	return gi, out
}

// KillGate marks a gate dead (level-converter cleanup). The gate must have no
// remaining consumers.
func (t *Incremental) KillGate(gi int) error {
	g := t.ckt.Gates[gi]
	out := t.ckt.GateSignal(gi)
	if t.fan.Degree(out) != 0 {
		return fmt.Errorf("sta: KillGate %s still has %d consumers", g.Name, t.fan.Degree(out))
	}
	t.journal = append(t.journal, undoRec{kind: recDead, a: int32(gi)})
	g.Dead = true
	t.markGate(gi)
	t.orderDirty = true
	for pin, s := range g.In {
		t.fan.Disconnect(s, netlist.Conn{Gate: gi, Pin: pin})
	}
	for _, s := range g.In {
		t.reload(s)
		t.rerequire(s)
	}
	// A dead gate's output reads as a fresh Analyze leaves it: never visited.
	t.setArrival(int(out), 0)
	t.setRequired(out, math.Inf(1))
	t.settle()
	return nil
}

// Checkpoint marks the current state for a later Rollback.
func (t *Incremental) Checkpoint() Mark { return Mark(len(t.journal)) }

// Rollback restores the engine and the circuit to the state at mark,
// reversing every mutation applied since, in time proportional to the work
// done since the mark.
func (t *Incremental) Rollback(m Mark) {
	for i := len(t.journal) - 1; i >= int(m); i-- {
		r := t.journal[i]
		ri := int(r.a)
		switch r.kind {
		case recArrival:
			t.Arrival[ri] = r.f
			t.mark(netlist.Signal(ri))
		case recRequired:
			t.Required[ri] = r.f
			t.mark(netlist.Signal(ri))
		case recSlack:
			t.Slack[ri] = r.f
			t.mark(netlist.Signal(ri))
		case recLoad:
			t.Load[ri] = r.f
			t.mark(netlist.Signal(ri))
		case recWorst:
			t.worst = r.f
		case recVolt:
			t.ckt.Gates[ri].Volt = cell.VoltLevel(r.v)
			t.markGate(ri)
		case recCell:
			t.ckt.Gates[ri].Cell = r.c
			t.markGate(ri)
		case recPin:
			g := t.ckt.Gates[ri]
			pin, sig := int(r.b), netlist.Signal(r.sig)
			cn := netlist.Conn{Gate: ri, Pin: pin}
			t.fan.Disconnect(g.In[pin], cn)
			t.fan.Connect(sig, cn)
			t.mark(g.In[pin])
			t.mark(sig)
			g.In[pin] = sig
		case recAdd:
			g := t.ckt.Gates[ri]
			for pin, s := range g.In {
				t.fan.Disconnect(s, netlist.Conn{Gate: ri, Pin: pin})
				t.mark(s)
			}
			t.ckt.Gates = t.ckt.Gates[:ri]
			n := t.ckt.NumSignals()
			t.Arrival = t.Arrival[:n]
			t.Required = t.Required[:n]
			t.Slack = t.Slack[:n]
			t.Load = t.Load[:n]
			t.fan.Shrink(n)
			t.prio = t.prio[:ri]
			t.inF = t.inF[:ri]
			t.inB = t.inB[:ri]
			t.inChg = t.inChg[:n]
			t.orderDirty = true
		case recDead:
			g := t.ckt.Gates[ri]
			g.Dead = false
			for pin, s := range g.In {
				t.fan.Connect(s, netlist.Conn{Gate: ri, Pin: pin})
			}
			t.markGate(ri)
			t.orderDirty = true
		}
	}
	t.journal = t.journal[:m]
}

// Commit discards the undo history accumulated so far; earlier Marks become
// invalid. Call it once a batch of moves is final to bound journal growth.
func (t *Incremental) Commit() { t.journal = t.journal[:0] }

// Check validates the incremental annotation against a fresh full analysis —
// the differential oracle. It returns the first discrepancy beyond eps.
func (t *Incremental) Check(eps float64) error {
	fresh, err := Analyze(t.ckt, t.lib, t.tspec)
	if err != nil {
		return err
	}
	cmp := func(what string, got, want []float64) error {
		for s := range want {
			g, w := got[s], want[s]
			if g == w || (math.IsInf(g, 1) && math.IsInf(w, 1)) {
				continue
			}
			if math.Abs(g-w) > eps {
				return fmt.Errorf("sta: incremental %s stale at %s: %.12g vs %.12g",
					what, t.ckt.SignalName(netlist.Signal(s)), g, w)
			}
		}
		return nil
	}
	if err := cmp("load", t.Load, fresh.Load); err != nil {
		return err
	}
	if err := cmp("arrival", t.Arrival, fresh.Arrival); err != nil {
		return err
	}
	if err := cmp("required", t.Required, fresh.Required); err != nil {
		return err
	}
	if err := cmp("slack", t.Slack, fresh.Slack); err != nil {
		return err
	}
	if math.Abs(t.worst-fresh.WorstArrival) > eps {
		return fmt.Errorf("sta: incremental worst arrival stale: %.12g vs %.12g", t.worst, fresh.WorstArrival)
	}
	return nil
}

// --- propagation internals ---

// computeLoad recomputes a signal's capacitive load with the same formula and
// summation order as Loads.
func (t *Incremental) computeLoad(s netlist.Signal) float64 {
	conns := t.fan.Conns[s]
	total := 0.0
	for _, cn := range conns {
		total += t.ckt.Gates[cn.Gate].Cell.InputCap[cn.Pin]
	}
	total += t.lib.WireCapPerFanout * float64(len(conns))
	for range t.fan.POs[s] {
		total += t.lib.POLoadCap
	}
	return total
}

// reload refreshes Load[s] and, on change, seeds the driver of s in both
// directions (its delay depends on the output load).
func (t *Incremental) reload(s netlist.Signal) {
	nl := t.computeLoad(s)
	if nl == t.Load[s] {
		return
	}
	t.journal = append(t.journal, undoRec{kind: recLoad, a: int32(s), f: t.Load[s]})
	t.Load[s] = nl
	t.mark(s)
	if di := t.ckt.GateIndex(s); di >= 0 && !t.ckt.Gates[di].Dead {
		t.pushF(di)
		t.pushB(di)
	}
}

// computeRequired recomputes a signal's required time from its current
// consumers (and tspec where it feeds a PO).
func (t *Incremental) computeRequired(s netlist.Signal) float64 {
	r := math.Inf(1)
	if len(t.fan.POs[s]) > 0 {
		r = t.tspec
	}
	for _, cn := range t.fan.Conns[s] {
		g := t.ckt.Gates[cn.Gate]
		out := t.ckt.GateSignal(cn.Gate)
		if v := t.Required[out] - g.Cell.Delay(cn.Pin, t.Load[out], t.lib.Derate(g.Volt)); v < r {
			r = v
		}
	}
	t.evals++
	return r
}

// rerequire refreshes Required[s] after its consumer set changed, seeding the
// driver backward on change. The value may still be transient — later pops
// of s's consumers recompute it with settled inputs.
func (t *Incremental) rerequire(s netlist.Signal) {
	t.setRequired(s, t.computeRequired(s))
}

func (t *Incremental) setRequired(s netlist.Signal, r float64) {
	old := t.Required[s]
	if r == old || (math.IsInf(r, 1) && math.IsInf(old, 1)) {
		return
	}
	t.journal = append(t.journal, undoRec{kind: recRequired, a: int32(s), f: old})
	t.Required[s] = r
	t.mark(s)
	t.touched = append(t.touched, s)
	if di := t.ckt.GateIndex(s); di >= 0 && !t.ckt.Gates[di].Dead {
		t.pushB(di)
	}
}

func (t *Incremental) setArrival(out int, a float64) {
	if a == t.Arrival[out] {
		return
	}
	t.journal = append(t.journal, undoRec{kind: recArrival, a: int32(out), f: t.Arrival[out]})
	t.Arrival[out] = a
	t.mark(netlist.Signal(out))
	t.touched = append(t.touched, netlist.Signal(out))
	for _, cn := range t.fan.Conns[netlist.Signal(out)] {
		t.pushF(cn.Gate)
	}
	if len(t.fan.POs[netlist.Signal(out)]) > 0 {
		t.poDirty = true
	}
}

// settle drains both propagation waves and refreshes slacks and the worst PO
// arrival for every touched signal.
func (t *Incremental) settle() {
	t.runForward()
	t.runBackward()
	for _, s := range t.touched {
		ns := t.Required[s] - t.Arrival[s]
		old := t.Slack[s]
		if ns == old || (math.IsInf(ns, 1) && math.IsInf(old, 1)) {
			continue
		}
		t.journal = append(t.journal, undoRec{kind: recSlack, a: int32(s), f: old})
		t.Slack[s] = ns
		t.mark(s)
	}
	t.touched = t.touched[:0]
	if t.poDirty {
		w := 0.0
		for _, po := range t.ckt.POs {
			if a := t.Arrival[po.Src]; a > w {
				w = a
			}
		}
		if w != t.worst {
			t.journal = append(t.journal, undoRec{kind: recWorst, f: t.worst})
			t.worst = w
		}
		t.poDirty = false
	}
}

// runForward re-propagates arrival times in increasing priority order: when a
// gate is popped every upstream change has settled, so each gate is evaluated
// at most once per wave.
func (t *Incremental) runForward() {
	for len(t.fheap) > 0 {
		gi := t.popF()
		g := t.ckt.Gates[gi]
		if g.Dead {
			continue
		}
		out := int(t.ckt.GateSignal(gi))
		t.evals++
		a := gateArrivalAt(t.ckt, t.Arrival, t.Load, gi, g.Cell, t.lib.Derate(g.Volt), 0)
		t.setArrival(out, a)
	}
}

// runBackward re-propagates required times in decreasing priority order; a
// gate's pop recomputes the required time at each of its fanins.
func (t *Incremental) runBackward() {
	for len(t.bheap) > 0 {
		gi := t.popB()
		if t.ckt.Gates[gi].Dead {
			continue
		}
		for _, s := range t.ckt.Gates[gi].In {
			t.rerequire(s)
		}
	}
}

// --- priority heaps (forward: min-prio, backward: max-prio) ---

func (t *Incremental) pushF(gi int) {
	if t.inF[gi] {
		return
	}
	t.inF[gi] = true
	t.fheap = append(t.fheap, gi)
	i := len(t.fheap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if t.prio[t.fheap[p]] <= t.prio[t.fheap[i]] {
			break
		}
		t.fheap[p], t.fheap[i] = t.fheap[i], t.fheap[p]
		i = p
	}
}

func (t *Incremental) popF() int {
	top := t.fheap[0]
	last := len(t.fheap) - 1
	t.fheap[0] = t.fheap[last]
	t.fheap = t.fheap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && t.prio[t.fheap[l]] < t.prio[t.fheap[small]] {
			small = l
		}
		if r < last && t.prio[t.fheap[r]] < t.prio[t.fheap[small]] {
			small = r
		}
		if small == i {
			break
		}
		t.fheap[i], t.fheap[small] = t.fheap[small], t.fheap[i]
		i = small
	}
	t.inF[top] = false
	return top
}

func (t *Incremental) pushB(gi int) {
	if t.inB[gi] {
		return
	}
	t.inB[gi] = true
	t.bheap = append(t.bheap, gi)
	i := len(t.bheap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if t.prio[t.bheap[p]] >= t.prio[t.bheap[i]] {
			break
		}
		t.bheap[p], t.bheap[i] = t.bheap[i], t.bheap[p]
		i = p
	}
}

func (t *Incremental) popB() int {
	top := t.bheap[0]
	last := len(t.bheap) - 1
	t.bheap[0] = t.bheap[last]
	t.bheap = t.bheap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < last && t.prio[t.bheap[l]] > t.prio[t.bheap[big]] {
			big = l
		}
		if r < last && t.prio[t.bheap[r]] > t.prio[t.bheap[big]] {
			big = r
		}
		if big == i {
			break
		}
		t.bheap[i], t.bheap[big] = t.bheap[big], t.bheap[i]
		i = big
	}
	t.inB[top] = false
	return top
}
