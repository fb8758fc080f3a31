// Package harness runs the paper's complete per-circuit experiment — prepare
// (generate, map, relax, measure original power), then CVS, Dscale and
// Gscale on fresh clones — and collects one report.Row per circuit. It is
// shared by cmd/tables, the root benchmark suite, and the experiments
// integration test so every consumer regenerates Tables 1 and 2 identically.
//
// All evaluation goes through dualvdd.Batch: RunAllContext fans the circuit
// list across a worker pool and aggregates rows in input order, so a
// parallel sweep is bit-identical to a serial one (the flow is seeded and
// shares no state across circuits).
package harness

import (
	"context"

	"dualvdd"
	"dualvdd/internal/report"
)

// Options configures a suite run.
type Options struct {
	// Circuits is the circuit list; nil means the full 39-circuit suite.
	Circuits []string
	// Workers bounds the worker pool; 0 or negative means GOMAXPROCS.
	Workers int
	// Observer receives the flow's progress events. With Workers > 1 it is
	// called concurrently from the pool and must be safe for concurrent use.
	Observer dualvdd.Observer
	// OnRow, when non-nil, is called once per finished circuit with its
	// suite index and row — progress reporting for long sweeps. Like
	// Observer it runs on the worker goroutines.
	OnRow func(index int, row report.Row)
}

// Run evaluates one benchmark circuit under the given configuration.
func Run(name string, cfg dualvdd.Config) (report.Row, error) {
	return RunContext(context.Background(), name, cfg)
}

// RunContext is Run honoring a context.
func RunContext(ctx context.Context, name string, cfg dualvdd.Config) (report.Row, error) {
	rows, err := RunAllContext(ctx, cfg, Options{Circuits: []string{name}, Workers: 1})
	if err != nil {
		return report.Row{}, err
	}
	return rows[0], nil
}

// RunDesign evaluates an already prepared design.
func RunDesign(d *dualvdd.Design) (report.Row, error) {
	return RunDesignContext(context.Background(), d)
}

// RunDesignContext runs CVS, Dscale and Gscale on fresh clones of the design
// and assembles the circuit's Table 1/2 row.
func RunDesignContext(ctx context.Context, d *dualvdd.Design) (report.Row, error) {
	var res [3]*dualvdd.FlowResult
	for i, algo := range dualvdd.Algorithms() {
		r, err := d.RunAlgorithm(ctx, algo)
		if err != nil {
			return report.Row{}, err
		}
		res[i] = r
	}
	cvs, ds, gs := res[0], res[1], res[2]
	return report.Row{
		Name:            d.Name,
		OrgPwrUW:        d.OrgPower * 1e6,
		CVSPct:          cvs.ImprovePct,
		DscalePct:       ds.ImprovePct,
		GscalePct:       gs.ImprovePct,
		CPUSec:          gs.Runtime.Seconds(),
		CVSSec:          cvs.Runtime.Seconds(),
		DscaleSec:       ds.Runtime.Seconds(),
		SimSec:          (cvs.SimTime + ds.SimTime + gs.SimTime).Seconds(),
		DscaleEvals:     ds.STAEvals,
		GscaleEvals:     gs.STAEvals,
		DscaleCandEvals: ds.CandEvals,
		OrgGates:        cvs.Gates,
		CVSLow:          cvs.LowGates,
		CVSRatio:        cvs.LowRatio,
		DscaleLow:       ds.LowGates,
		DscaleRatio:     ds.LowRatio,
		GscaleLow:       gs.LowGates,
		GscRatio:        gs.LowRatio,
		Sized:           gs.Sized,
		AreaInc:         gs.AreaIncrease,
		DscaleLCs:       ds.LCs,
	}, nil
}

// RunAll evaluates every benchmark in table order, serially. Compatibility
// wrapper around RunAllContext.
func RunAll(cfg dualvdd.Config) ([]report.Row, error) {
	return RunAllContext(context.Background(), cfg, Options{Workers: 1})
}

// RunAllContext evaluates the suite on a worker pool and returns the rows in
// circuit-list order. Row values are independent of the worker count, and so
// is the returned error: on failure the pool skips higher-index circuits
// that have not started, finishes the ones in flight, and reports the
// lowest-index failure (see dualvdd.BatchMap).
func RunAllContext(ctx context.Context, cfg dualvdd.Config, opts Options) ([]report.Row, error) {
	names := opts.Circuits
	if names == nil {
		names = dualvdd.Benchmarks()
	}
	pool := dualvdd.Batch{Workers: opts.Workers}
	return dualvdd.BatchMap(ctx, pool, len(names), func(ctx context.Context, i int) (report.Row, error) {
		flow := dualvdd.New(dualvdd.FromConfig(cfg), dualvdd.WithObserver(opts.Observer))
		d, err := flow.PrepareBenchmark(ctx, names[i])
		if err != nil {
			return report.Row{}, err
		}
		row, err := RunDesignContext(ctx, d)
		if err != nil {
			return report.Row{}, err
		}
		if opts.OnRow != nil {
			opts.OnRow(i, row)
		}
		return row, nil
	})
}
