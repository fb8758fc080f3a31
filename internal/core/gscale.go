package core

import (
	"fmt"
	"sort"

	"dualvdd/internal/cell"
	"dualvdd/internal/graph"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sta"
)

// critEps is the tolerance for calling a fanin edge "critical" when tracing
// the critical path network.
const critEps = 1e-7

// getCPN extracts the critical path network feeding the TCB: every gate on a
// path that determines the arrival time at some TCB node (paper §3's
// get_CPN, via static timing analysis). TCB gates themselves are included —
// up-sizing the boundary gate is often exactly what lets it take Vlow.
func getCPN(ckt *netlist.Circuit, lib *cell.Library, inc *sta.Incremental, tcb []int) map[int]bool {
	cpn := make(map[int]bool)
	stack := append([]int(nil), tcb...)
	for _, gi := range tcb {
		cpn[gi] = true
	}
	for len(stack) > 0 {
		gi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := ckt.Gates[gi]
		out := ckt.GateSignal(gi)
		derate := lib.Derate(g.Volt)
		for pin, s := range g.In {
			if ckt.IsPI(s) {
				continue
			}
			a := inc.Arrival[s] + g.Cell.Delay(pin, inc.Load[out], derate)
			if a < inc.Arrival[out]-critEps {
				continue // this fanin does not set the arrival
			}
			di := ckt.GateIndex(s)
			if di < 0 || cpn[di] {
				continue
			}
			cpn[di] = true
			stack = append(stack, di)
		}
	}
	return cpn
}

// sizingGain estimates the timing benefit of up-sizing gate gi to the next
// cell size: the gate's own delay reduction minus the worst slowdown its
// larger input pins inflict on its drivers (weight_with_area_versus_time_gain
// needs the *net* gain or the separator would pick counterproductive moves).
// Returns the candidate cell, the net gain in ns and the area penalty, or
// ok=false when the gate has no larger size or up-sizing does not pay.
func sizingGain(ckt *netlist.Circuit, lib *cell.Library, inc *sta.Incremental, gi int) (up *cell.Cell, gain, dArea float64, ok bool) {
	g := ckt.Gates[gi]
	up = lib.Upsize(g.Cell)
	if up == nil {
		return nil, 0, 0, false
	}
	out := ckt.GateSignal(gi)
	selfGain := inc.Arrival[out] - inc.GateArrivalWithCell(gi, up, 0)
	worstDriverPenalty := 0.0
	for pin, s := range g.In {
		di := ckt.GateIndex(s)
		if di < 0 {
			continue // PI: the environment absorbs the extra pin load
		}
		drv := ckt.Gates[di]
		dLoad := up.InputCap[pin] - g.Cell.InputCap[pin]
		penalty := drv.Cell.Drive * dLoad * lib.Derate(drv.Volt)
		if penalty > worstDriverPenalty {
			worstDriverPenalty = penalty
		}
	}
	gain = selfGain - worstDriverPenalty
	if gain <= 0 {
		return nil, 0, 0, false
	}
	return up, gain, up.Area - g.Cell.Area, true
}

// tcbEqual compares two sorted TCB slices.
func tcbEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// GscaleOn runs the paper's §3 algorithm: CVS sets the initial low cluster,
// then each iteration speeds up the paths into the time-critical boundary by
// up-sizing a minimum-weight separator of the critical path network (weights
// are area-penalty over timing-gain, computed by Edmonds–Karp
// max-flow/min-cut), re-times incrementally, and re-runs CVS to push the TCB
// toward the primary inputs. Batches are applied transactionally: a cut that
// misses the constraint is rolled back through the engine's journal instead
// of being unwound by hand. The loop stops when the area budget is exhausted
// or after MaxIter consecutive pushes that leave the TCB unchanged. No level
// converters are needed: the low gates always form one cluster.
//
// The caller supplies an incremental engine whose annotation is already
// settled for ckt under lib. The engine's undo journal is never
// committed, so the caller's Checkpoint mark survives and one Rollback undoes
// the whole run; the final safety check is the engine's own Meets, and the
// caller verifies the result with a fresh full analysis.
func GscaleOn(inc *sta.Incremental, ckt *netlist.Circuit, lib *cell.Library, opts Options) (*Result, error) {
	areaBefore := ckt.Area()
	maxArea := areaBefore * (1 + opts.MaxAreaIncrease)
	opts.evalsBase = inc.Evals()
	cvsRes, err := cvsOn(inc, ckt, &opts, "Gscale", 0)
	if err != nil {
		return nil, err
	}
	tcb := cvsRes.TCB
	originalCell := make(map[int]*cell.Cell)
	res := &Result{}
	counter := 0
	for counter <= opts.MaxIter && len(tcb) > 0 {
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		if ckt.Area() >= maxArea-1e-12 {
			break // no further area increase is allowed
		}
		if err := selfCheck(inc, opts); err != nil {
			return nil, err
		}
		cpn := getCPN(ckt, lib, inc, tcb)

		// Weight the CPN and build its induced DAG.
		idx := make(map[int]int, len(cpn))
		var gates []int
		for gi := range cpn {
			gates = append(gates, gi)
		}
		// Deterministic ordering of the CPN node set.
		sort.Ints(gates)
		for i, gi := range gates {
			idx[gi] = i
		}
		n := len(gates)
		weight := make([]int64, n)
		ups := make([]*cell.Cell, n)
		for i, gi := range gates {
			up, gain, dArea, ok := sizingGain(ckt, lib, inc, gi)
			if !ok || ckt.Area()+dArea > maxArea {
				weight[i] = graph.Inf
				continue
			}
			ups[i] = up
			w := int64(dArea / gain * 1e6)
			if w < 1 {
				w = 1
			}
			weight[i] = w
		}
		succ := make([][]int, n)
		hasPred := make([]bool, n)
		fan := inc.Fanouts()
		for i, gi := range gates {
			for _, cn := range fan.Conns[ckt.GateSignal(gi)] {
				if j, ok := idx[cn.Gate]; ok {
					succ[i] = append(succ[i], j)
					hasPred[j] = true
				}
			}
		}
		isEntry := make([]bool, n)
		isExit := make([]bool, n)
		for i := range gates {
			isEntry[i] = !hasPred[i]
		}
		for _, gi := range tcb {
			if i, ok := idx[gi]; ok {
				isExit[i] = true
			}
		}

		var (
			cut       []int
			cutWeight int64
			feasible  bool
		)
		if opts.GreedySizing {
			// Ablation: up-size only the single best ratio gate. Unlike the
			// separator, this speeds up one critical path at a time.
			best, bestW := -1, graph.Inf
			for i := range gates {
				if weight[i] < bestW {
					best, bestW = i, weight[i]
				}
			}
			if best >= 0 && bestW < graph.Inf {
				cut, cutWeight, feasible = []int{best}, bestW, true
			}
		} else {
			cut, cutWeight, feasible = graph.MinVertexCut(n, succ, weight, isEntry, isExit)
		}
		resized := 0
		if feasible && cutWeight < graph.Inf {
			// Apply the whole cut at once: the separator property means every
			// critical path is sped up by exactly one member, and the members
			// jointly absorb the driver-load penalties they inflict on each
			// other's sibling paths. (Applying one at a time would let a
			// shared driver's slowdown hit a sibling path before that path's
			// own cut member has compensated — a spurious violation.)
			mark := inc.Checkpoint()
			var applied []int
			prevCell := make(map[int]*cell.Cell)
			for _, i := range cut {
				gi := gates[i]
				up := ups[i]
				if up == nil {
					continue
				}
				g := ckt.Gates[gi]
				if ckt.Area()+up.Area-g.Cell.Area > maxArea {
					continue // resize only if area increase is allowed
				}
				prevCell[gi] = g.Cell
				inc.SetCell(gi, up)
				applied = append(applied, gi)
			}
			if len(applied) > 0 {
				if inc.Meets(opts.Eps) {
					resized = len(applied)
					for _, gi := range applied {
						if _, seen := originalCell[gi]; !seen {
							originalCell[gi] = prevCell[gi]
						}
					}
				} else {
					// Conservative gain estimates failed this batch (e.g. a
					// driver shared by many cut members): roll the whole
					// batch back and try a greedy one-by-one fallback so
					// progress is still made.
					inc.Rollback(mark)
					for _, gi := range applied {
						g := ckt.Gates[gi]
						next := lib.Upsize(g.Cell)
						if next == nil || ckt.Area()+next.Area-g.Cell.Area > maxArea {
							continue
						}
						prev := g.Cell
						one := inc.Checkpoint()
						inc.SetCell(gi, next)
						if !inc.Meets(opts.Eps) {
							inc.Rollback(one)
							continue
						}
						if _, seen := originalCell[gi]; !seen {
							originalCell[gi] = prev
						}
						resized++
					}
				}
			}
		}
		res.Iterations++

		// update_timing + push the TCB with another CVS run.
		cvsRes, err = cvsOn(inc, ckt, &opts, "Gscale", res.Iterations)
		if err != nil {
			return nil, err
		}
		tcbNew := cvsRes.TCB
		if resized == 0 || tcbEqual(tcbNew, tcb) {
			counter++
		} else {
			counter = 0
		}
		tcb = tcbNew
		opts.emit(Event{
			Algorithm: "Gscale", Kind: EventRound, Round: res.Iterations,
			Moves: resized, LowGates: ckt.NumLowGates(),
			STAEvals: inc.Evals() - opts.evalsBase, WorstArrival: inc.WorstArrival(),
		})
		if resized == 0 && !feasible {
			break // sizing can make no further difference
		}
	}
	// Safety: Gscale must never violate the constraint.
	if !inc.Meets(opts.Eps) {
		return nil, fmt.Errorf("core: Gscale violated timing (%.6f > %.6f)", inc.WorstArrival(), opts.Tspec)
	}
	//lint:nondeterministic-ok commutative counting of resized gates; order-free
	for gi, orig := range originalCell {
		if ckt.Gates[gi].Cell != orig {
			res.Sized++
		}
	}
	res.Lowered = ckt.NumLowGates()
	res.LCs = ckt.NumLCs()
	res.AreaIncrease = ckt.Area()/areaBefore - 1
	res.TCB = tcb
	res.STAEvals = inc.Evals() - opts.evalsBase
	if opts.Activities != nil {
		res.Act = opts.Activities
	}
	return res, nil
}
