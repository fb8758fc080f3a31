package dualvdd

import (
	"context"
	"fmt"
	"sync"

	"dualvdd/internal/logic"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sta"
)

// WarmDesign is a prepared design plus the reusable execution state of a warm
// sweep: one working clone of the mapped circuit and one incremental timing
// engine, built once and then retargeted across voltage points. Everything
// expensive about a point — the technology mapping, the activity simulation,
// the baseline full timing analysis — is a property of the circuit alone, not
// of the low rail, so a sweep that re-derives it per point pays the same bill
// over and over. RunAt instead swaps the library's low rail (an annotation
// no-op at the all-VHigh baseline) and runs each algorithm through the same
// execution path as Flow.Run, inside a Checkpoint/Rollback fence on the
// shared engine. Results are bit-identical to standalone Flow runs (the
// differential suite holds both to a reference composition); only the wall
// clock and the evaluation totals differ.
//
// A WarmDesign serializes its runs: RunAt holds an internal lock, so
// concurrent callers take turns on the one engine. Sweep-level parallelism
// comes from using one WarmDesign per circuit, which is exactly how the warm
// scheduler partitions its grid.
type WarmDesign struct {
	// Design is the prepared benchmark the runs share. Its pristine Circuit
	// is never touched; the WarmDesign works on its own clone.
	Design *Design

	mu   sync.Mutex
	work *netlist.Circuit // guarded by mu
	inc  *sta.Incremental // guarded by mu
	runs int64            // guarded by mu
}

// NewWarmDesign builds the shared execution state from a prepared design: one
// working clone and one incremental engine (one full timing analysis — the
// last one until the WarmDesign is dropped).
func NewWarmDesign(d *Design) (*WarmDesign, error) {
	work := d.Circuit.Clone()
	inc, err := sta.NewIncremental(work, d.Lib, d.Tspec)
	if err != nil {
		return nil, err
	}
	return &WarmDesign{Design: d, work: work, inc: inc}, nil
}

// PrepareWarm maps a logic network, measures its original power and wraps the
// design for warm multi-point execution.
func (f *Flow) PrepareWarm(ctx context.Context, net *logic.Network) (*WarmDesign, error) {
	d, err := f.Prepare(ctx, net)
	if err != nil {
		return nil, err
	}
	return NewWarmDesign(d)
}

// PrepareWarmBenchmark is PrepareWarm for one of the MCNC stand-in
// benchmarks.
func (f *Flow) PrepareWarmBenchmark(ctx context.Context, name string) (*WarmDesign, error) {
	d, err := f.PrepareBenchmark(ctx, name)
	if err != nil {
		return nil, err
	}
	return NewWarmDesign(d)
}

// Runs returns how many algorithm executions the shared state has served —
// the denominator of the warm path's amortization.
func (w *WarmDesign) Runs() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.runs
}

// RunAt executes the given algorithms (all three when empty) at the given
// rail vector — [vhigh, vlow] for the classic pair, any longer descending
// list for multi-rail scaling; rails[0] must equal the prepared design's high
// rail — reusing the shared prepared state. Each algorithm runs inside a
// Checkpoint/Rollback fence on the shared engine, which restores the working
// circuit to the all-VHigh baseline: no mapping, no simulation, and one full
// analysis per run, the verification. Results are bit-identical to
// Design.RunAlgorithm at the same rails, except that Runtime measures the
// warm work and Circuit is nil — the working clone is rolled back, so there
// is no scaled netlist to hand out. A cancelled context aborts within one
// algorithm iteration with ctx.Err(); the baseline is restored before
// returning, so the WarmDesign stays valid for further points.
func (w *WarmDesign) RunAt(ctx context.Context, rails []float64, algos []Algorithm, obs Observer) ([]*FlowResult, error) {
	if len(algos) == 0 {
		algos = Algorithms()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	lib, err := w.Design.Lib.AtRails(rails)
	if err != nil {
		return nil, fmt.Errorf("dualvdd: warm run on %s: %w", w.Design.Name, err)
	}
	// At the all-VHigh baseline every derate is exactly 1.0, so swapping the
	// low rail preserves the engine's annotation bit for bit.
	if err := w.inc.SetLibrary(lib); err != nil {
		return nil, fmt.Errorf("dualvdd: warm run on %s: %w", w.Design.Name, err)
	}
	results := make([]*FlowResult, 0, len(algos))
	for _, algo := range algos {
		res, err := w.fenced(ctx, algo, obs)
		if err != nil {
			return results, err
		}
		w.runs++
		results = append(results, res)
	}
	return results, nil
}

// fenced runs one algorithm on the shared engine and rolls it back to the
// baseline on every path — a failed or cancelled run included — so the shared
// state can never poison a later point. The caller holds w.mu.
func (w *WarmDesign) fenced(ctx context.Context, algo Algorithm, obs Observer) (*FlowResult, error) {
	defer w.inc.Rollback(w.inc.Checkpoint())
	return w.Design.runOne(ctx, w.inc, w.work, algo, obs, false)
}
