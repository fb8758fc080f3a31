package dualvdd

import (
	"context"
	"io"

	"dualvdd/internal/blif"
	"dualvdd/internal/logic"
	"dualvdd/internal/mcnc"
	"dualvdd/internal/sta"
)

// Algorithm names one of the paper's scaling algorithms.
type Algorithm string

const (
	// AlgoCVS is clustered voltage scaling, the Usami–Horowitz baseline.
	AlgoCVS Algorithm = "CVS"
	// AlgoDscale is the paper's §2 slack-harvesting algorithm.
	AlgoDscale Algorithm = "Dscale"
	// AlgoGscale is the paper's §3 slack-creating sizing algorithm.
	AlgoGscale Algorithm = "Gscale"
)

// Algorithms returns the three algorithms in the paper's presentation order.
func Algorithms() []Algorithm { return []Algorithm{AlgoCVS, AlgoDscale, AlgoGscale} }

// Flow is the context-aware, observable entry point of the package: a
// configured pipeline that prepares designs (map → relax → measure) and runs
// scaling algorithms on them, streaming typed progress events to an optional
// Observer. Build one with New and functional options; the zero-argument New
// reproduces the paper's evaluation setup exactly, like DefaultConfig.
//
// A Flow is immutable after New and safe for concurrent use: every Prepare
// returns an independent Design, and Batch fans one Flow across a worker
// pool.
type Flow struct {
	cfg   Config
	algos []Algorithm
	obs   Observer
}

// Option configures a Flow during New.
type Option func(*Flow)

// New builds a Flow from the paper's default configuration plus options.
func New(opts ...Option) *Flow {
	f := &Flow{cfg: DefaultConfig(), algos: Algorithms()}
	for _, opt := range opts {
		opt(f)
	}
	// Canonical form everywhere downstream: a two-entry WithRails folds into
	// the Vhigh/Vlow aliases here, so jobs, keys and wire bytes built from
	// this Flow are exactly the legacy ones.
	f.cfg = f.cfg.Normalized()
	return f
}

// FromConfig seeds the Flow with a legacy Config — the migration bridge for
// code still assembling a Config struct. Later options override its fields.
func FromConfig(cfg Config) Option {
	return func(f *Flow) { f.cfg = cfg }
}

// WithVoltages sets the two supply rails (the paper uses 5.0 and 4.3 V).
func WithVoltages(vhigh, vlow float64) Option {
	return func(f *Flow) { f.cfg.Vhigh, f.cfg.Vlow = vhigh, vlow }
}

// WithRails sets the full sorted supply list for multi-rail scaling (see
// Config.Rails); it overrides WithVoltages. Two rails are canonically
// equivalent to WithVoltages(rails[0], rails[1]), bit for bit.
func WithRails(rails ...float64) Option {
	return func(f *Flow) { f.cfg.Rails = append([]float64(nil), rails...) }
}

// WithSlackFactor sets how far the timing constraint is loosened over the
// minimum-delay mapping (1.2 = the paper's 20%).
func WithSlackFactor(factor float64) Option {
	return func(f *Flow) { f.cfg.SlackFactor = factor }
}

// WithAreaBudget sets Gscale's area budget as a fraction of the original
// area (0.10 in the paper).
func WithAreaBudget(frac float64) Option {
	return func(f *Flow) { f.cfg.MaxAreaIncrease = frac }
}

// WithMaxIter sets Gscale's unsuccessful-push bound (10 in the paper).
func WithMaxIter(n int) Option {
	return func(f *Flow) { f.cfg.MaxIter = n }
}

// WithSimWords sets the number of 64-vector words for random-vector power
// estimation.
func WithSimWords(n int) Option {
	return func(f *Flow) { f.cfg.SimWords = n }
}

// WithSimWorkers bounds the word-parallel workers of the compiled logic
// simulation (0 = GOMAXPROCS). Estimates are bit-identical at any setting;
// the knob trades sim wall clock against CPU contention with the Batch pool.
func WithSimWorkers(n int) Option {
	return func(f *Flow) { f.cfg.SimWorkers = n }
}

// WithSeed sets the random-simulation seed; the whole flow is deterministic
// in it.
func WithSeed(seed uint64) Option {
	return func(f *Flow) { f.cfg.Seed = seed }
}

// WithClock sets the power-estimation clock frequency in Hz (20 MHz in the
// paper).
func WithClock(hz float64) Option {
	return func(f *Flow) { f.cfg.Fclk = hz }
}

// WithGreedySelect swaps Dscale's maximum-weight-independent-set selection
// for the greedy ablation baseline.
func WithGreedySelect(on bool) Option {
	return func(f *Flow) { f.cfg.GreedySelect = on }
}

// WithGreedySizing swaps Gscale's minimum-weight-separator sizing for the
// single-gate ablation baseline.
func WithGreedySizing(on bool) Option {
	return func(f *Flow) { f.cfg.GreedySizing = on }
}

// WithAlgorithms selects which algorithms Run executes, in order. The
// default is all three in the paper's order.
func WithAlgorithms(algos ...Algorithm) Option {
	return func(f *Flow) { f.algos = append([]Algorithm(nil), algos...) }
}

// WithObserver attaches a progress-event observer to every Design the Flow
// prepares. See Event for the delivery contract; nil is allowed and means
// "no observation".
func WithObserver(obs Observer) Option {
	return func(f *Flow) { f.obs = obs }
}

// Config returns the legacy Config the Flow's options resolve to.
func (f *Flow) Config() Config { return f.cfg }

// Algorithms returns the algorithms Run executes, in order. Together with
// Config it is the Flow's full serializable state — what a Job carries to a
// remote Runner.
func (f *Flow) Algorithms() []Algorithm { return append([]Algorithm(nil), f.algos...) }

// Prepare maps a logic network and measures its original power. The context
// is checked between the pipeline's stages.
func (f *Flow) Prepare(ctx context.Context, net *logic.Network) (*Design, error) {
	return prepare(ctx, net, f.cfg, f.obs)
}

// PrepareBenchmark generates one of the 39 MCNC stand-in benchmarks and
// prepares it.
func (f *Flow) PrepareBenchmark(ctx context.Context, name string) (*Design, error) {
	net, err := mcnc.Generate(name)
	if err != nil {
		return nil, err
	}
	return f.Prepare(ctx, net)
}

// LoadBLIF reads a technology-independent BLIF model and prepares it.
func (f *Flow) LoadBLIF(ctx context.Context, r io.Reader) (*Design, error) {
	net, err := blif.ParseNetwork(r)
	if err != nil {
		return nil, err
	}
	return f.Prepare(ctx, net)
}

// Run executes the Flow's configured algorithms on the design, each on a
// fresh clone, and returns the results in configuration order. It stops at
// the first error; a cancelled context aborts within one algorithm iteration
// with ctx.Err().
func (f *Flow) Run(ctx context.Context, d *Design) ([]*FlowResult, error) {
	results := make([]*FlowResult, 0, len(f.algos))
	for _, algo := range f.algos {
		res, err := d.RunAlgorithm(ctx, algo)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// RunAlgorithm runs one named algorithm on a fresh clone of the design, with
// a fresh incremental timing engine, and hands the scaled clone out as the
// result's Circuit. The design's pristine Circuit is never touched. A
// cancelled or expired context aborts within one algorithm iteration and
// returns ctx.Err().
func (d *Design) RunAlgorithm(ctx context.Context, algo Algorithm) (*FlowResult, error) {
	ckt := d.Circuit.Clone()
	inc, err := sta.NewIncremental(ckt, d.Lib, d.Tspec)
	if err != nil {
		return nil, err
	}
	return d.runOne(ctx, inc, ckt, algo, d.obs, true)
}
