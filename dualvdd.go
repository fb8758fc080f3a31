// Package dualvdd is the public entry point of this reproduction of
// "Gate-Level Design Exploiting Dual Supply Voltages for Power-Driven
// Applications" (Yeh, Chang, Chang, Jone — DAC 1999). It wires the substrate
// packages (cell library, technology mapper, static timing, random-vector
// power estimation) into the paper's experimental flow and exposes the three
// scaling algorithms:
//
//	CVS    — clustered voltage scaling (the Usami–Horowitz baseline),
//	Dscale — slack harvesting with a maximum-weight independent set,
//	Gscale — slack creation by separator-cut gate sizing.
//
// See internal/core for the algorithmics and DESIGN.md for the full map
// from the paper to this repository.
//
// The surface is the context-aware Flow, built with functional options; it
// supports cancellation, deadlines and typed progress events, and composes
// with Batch for parallel suite evaluation:
//
//	flow := dualvdd.New(
//		dualvdd.WithVoltages(5.0, 4.3),
//		dualvdd.WithObserver(func(ev dualvdd.Event) { ... }),
//	)
//	d, err := flow.PrepareBenchmark(ctx, "C880")
//	res, err := d.RunAlgorithm(ctx, dualvdd.AlgoGscale)
//	fmt.Printf("%.2f%% power saved\n", res.ImprovePct)
//
// Code that assembles a flat Config passes it through FromConfig. Every
// algorithm run — one-shot through Flow.Run, or one point of a warm sweep
// through WarmDesign.RunAt — takes the same execution path.
package dualvdd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"dualvdd/internal/blif"
	"dualvdd/internal/cell"
	"dualvdd/internal/core"
	"dualvdd/internal/logic"
	"dualvdd/internal/mapper"
	"dualvdd/internal/mcnc"
	"dualvdd/internal/netlist"
	"dualvdd/internal/power"
	"dualvdd/internal/sta"
)

// Config collects every knob of the paper's evaluation setup; DefaultConfig
// reproduces the published numbers' conditions.
type Config struct {
	// Vhigh, Vlow are the two supply rails; the paper uses (5, 4.3) "in
	// accordance with our internal design project".
	Vhigh float64 `json:"vhigh"`
	Vlow  float64 `json:"vlow"`
	// Rails generalizes the pair to a sorted (strictly descending) supply
	// list of two or more rails, following the multi-supply-voltage line of
	// the related work: gates demote one rail step at a time and level
	// converters are charged per crossed boundary. Vhigh/Vlow stay exact
	// aliases for the first and last entry. A two-entry Rails is canonically
	// equivalent to setting Vhigh/Vlow directly — Normalized folds it into
	// the aliases and drops the list, so two-rail configs keep their legacy
	// JSON bytes and content addresses. Empty means "use Vhigh/Vlow".
	Rails []float64 `json:"rails,omitempty"`
	// SlackFactor loosens the timing constraint over the minimum-delay
	// mapping (1.2 = the paper's 20%).
	SlackFactor float64 `json:"slack_factor"`
	// MaxAreaIncrease is Gscale's area budget (0.10 in the paper).
	MaxAreaIncrease float64 `json:"max_area_increase"`
	// MaxIter is Gscale's unsuccessful-push bound (10 in the paper).
	MaxIter int `json:"max_iter"`
	// SimWords is the number of 64-vector words for power estimation.
	SimWords int `json:"sim_words"`
	// SimWorkers bounds the word-parallel workers of the compiled logic
	// simulation; 0 means GOMAXPROCS. Any setting produces bit-identical
	// estimates — the workers reduce integer statistics in fixed order.
	SimWorkers int `json:"sim_workers,omitempty"`
	// Seed drives the random simulation.
	Seed uint64 `json:"seed"`
	// Fclk is the power-estimation clock (20 MHz in the paper).
	Fclk float64 `json:"fclk_hz"`
	// GreedySelect and GreedySizing swap the paper's combinatorial
	// formulations (MWIS selection in Dscale, separator-cut sizing in
	// Gscale) for greedy baselines. They exist for the ablation benchmarks.
	GreedySelect bool `json:"greedy_select,omitempty"`
	GreedySizing bool `json:"greedy_sizing,omitempty"`
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Vhigh:           5.0,
		Vlow:            4.3,
		SlackFactor:     1.2,
		MaxAreaIncrease: 0.10,
		MaxIter:         10,
		SimWords:        256,
		Seed:            1,
		Fclk:            power.DefaultClock,
	}
}

// Normalized returns the canonical form of the configuration: when Rails is
// set, Vhigh and Vlow are derived from its first and last entry, and a
// two-entry Rails — fully redundant with the aliases — is dropped. The
// canonical form is what every content address, wire encoding and library
// construction uses, which is how `Rails: [5.0, 4.3]` produces bit-identical
// JSON, cache keys and results to the legacy Vhigh/Vlow pair. Configs without
// Rails are returned unchanged.
func (c Config) Normalized() Config {
	if len(c.Rails) == 0 {
		return c
	}
	c.Rails = append([]float64(nil), c.Rails...)
	c.Vhigh = c.Rails[0]
	c.Vlow = c.Rails[len(c.Rails)-1]
	if len(c.Rails) == 2 {
		c.Rails = nil
	}
	return c
}

// RailList resolves the full sorted rail list: Rails when set, otherwise the
// [Vhigh, Vlow] pair. The returned slice is always a fresh copy.
func (c Config) RailList() []float64 {
	if len(c.Rails) >= 2 {
		return append([]float64(nil), c.Rails...)
	}
	return []float64{c.Vhigh, c.Vlow}
}

// NumRails reports how many supply rails the configuration resolves to.
func (c Config) NumRails() int {
	if len(c.Rails) >= 2 {
		return len(c.Rails)
	}
	return 2
}

// ErrInvalidConfig is the sentinel every Config.Validate failure wraps. The
// message shape is stable and documented: "dualvdd: invalid config: <field>:
// <reason>", so callers match with errors.Is and humans read one format
// across the CLI, the job service and sweep expansion.
var ErrInvalidConfig = errors.New("dualvdd: invalid config")

// configErr builds the one documented error shape of config validation.
func configErr(field, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrInvalidConfig, field, fmt.Sprintf(format, args...))
}

// Validate checks the configuration for the degenerate shapes that would
// otherwise slip through to meaningless numbers (a zero or negative rail
// makes the delay derate and power ratio NaN or infinite, Vlow ≥ Vhigh
// inverts equation (1), zero simulation words divide by zero in activity
// estimation). Every entry point that accepts a Config — Prepare, Job
// submission, sweep expansion — validates before touching the circuit.
// Failures wrap ErrInvalidConfig.
func (c Config) Validate() error {
	finite := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
	if len(c.Rails) == 1 {
		return configErr("rails", "a rail list needs at least two supplies, got 1")
	}
	for i, r := range c.Rails {
		if !finite(r) || r <= 0 {
			return configErr("rails", "rail %d: supply %g must be a positive, finite voltage", i, r)
		}
		if i > 0 && r >= c.Rails[i-1] {
			return configErr("rails", "rail %d: supply %g must sit strictly below rail %d (%g) — rails are sorted descending", i, r, i-1, c.Rails[i-1])
		}
	}
	c = c.Normalized() // derive the Vhigh/Vlow aliases the checks below see
	switch {
	case !finite(c.Vhigh) || c.Vhigh <= 0:
		return configErr("vhigh", "supply %g must be a positive, finite voltage", c.Vhigh)
	case !finite(c.Vlow) || c.Vlow <= 0:
		return configErr("vlow", "supply %g must be a positive, finite voltage", c.Vlow)
	case c.Vlow >= c.Vhigh:
		return configErr("vlow", "low rail %g must sit strictly below vhigh %g", c.Vlow, c.Vhigh)
	case !finite(c.SlackFactor) || c.SlackFactor < 1:
		return configErr("slack_factor", "%g must be ≥ 1 (1 = no relaxation)", c.SlackFactor)
	case !finite(c.MaxAreaIncrease) || c.MaxAreaIncrease < 0:
		return configErr("max_area_increase", "%g must be a non-negative fraction", c.MaxAreaIncrease)
	case c.MaxIter < 0:
		return configErr("max_iter", "%d must be non-negative", c.MaxIter)
	case c.SimWords < 1:
		return configErr("sim_words", "%d must be at least 1", c.SimWords)
	case c.SimWorkers < 0:
		return configErr("sim_workers", "%d must be non-negative (0 = GOMAXPROCS)", c.SimWorkers)
	case !finite(c.Fclk) || c.Fclk <= 0:
		return configErr("fclk_hz", "%g must be a positive, finite frequency", c.Fclk)
	}
	return nil
}

// Design is a prepared benchmark: mapped against the dual-voltage library
// with its critical path sitting at the timing constraint, ready for the
// scaling algorithms.
type Design struct {
	// Name is the circuit name.
	Name string
	// Lib is the dual-voltage cell library in use.
	Lib *cell.Library
	// Circuit is the mapped netlist, entirely at Vhigh. Runs operate on
	// clones; Circuit itself stays pristine.
	Circuit *netlist.Circuit
	// MinDelay is the minimum-delay mapping's critical path (ns); Tspec is
	// the constraint handed to the algorithms — the relaxed, area-recovered
	// mapping's own critical path, per the paper's setup.
	MinDelay float64
	Tspec    float64
	// OrgPower is the power of the unscaled circuit in watts (Table 1's
	// OrgPwr column).
	OrgPower float64

	// act is the baseline per-signal switching activity from the original
	// power measurement. Activities depend only on the logic, the seed and
	// the word count — never on voltages — so the table prepared here serves
	// every run of the design, at any rails.
	act []float64

	cfg Config
	obs Observer
}

// prepare maps a logic network and measures its original power and baseline
// activity table; the context is checked between the pipeline's stages.
func prepare(ctx context.Context, net *logic.Network, cfg Config, obs Observer) (*Design, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Normalized()
	lib := cell.Compass06Rails(cfg.RailList())
	mopts := mapper.DefaultOptions()
	mopts.SlackFactor = cfg.SlackFactor
	res, err := mapper.Map(net, lib, mopts)
	if err != nil {
		return nil, fmt.Errorf("dualvdd: mapping %s: %w", net.Name, err)
	}
	d := &Design{
		Name:     net.Name,
		Lib:      lib,
		Circuit:  res.Circuit,
		MinDelay: res.MinDelay,
		Tspec:    res.Tspec,
		cfg:      cfg,
		obs:      obs,
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pb, sres, err := power.EstimateRandomParallel(res.Circuit, lib, cfg.SimWords, cfg.Seed, cfg.Fclk, cfg.SimWorkers)
	if err != nil {
		return nil, err
	}
	d.OrgPower = pb.Total
	d.act = sres.Act
	obs.emit(EventMapped{
		Circuit: d.Name, Gates: d.Circuit.NumLiveGates(),
		MinDelay: d.MinDelay, Tspec: d.Tspec, OrgPower: d.OrgPower,
	})
	return d, nil
}

// Benchmarks lists the 39 circuit names of the paper's test bed. The list is
// sorted and stable across calls — servers expose it verbatim and clients may
// cache it.
func Benchmarks() []string {
	names := append([]string(nil), mcnc.Names()...)
	sort.Strings(names)
	return names
}

// FlowResult reports one scaling run.
//
// The struct has a stable JSON encoding (snake_case keys, durations in
// nanoseconds) — it is the result schema the server and client exchange.
// Circuit is local-only and never crosses the wire.
type FlowResult struct {
	// Algorithm is "CVS", "Dscale" or "Gscale".
	Algorithm string `json:"algorithm"`
	// Power is the post-scaling total power in watts; ImprovePct the
	// percentage improvement over the design's OrgPower (Table 1).
	Power      float64 `json:"power_w"`
	ImprovePct float64 `json:"improve_pct"`
	// Gates counts live ordinary gates, LowGates those at Vlow, LCs the
	// level converters, Sized the gates Gscale resized (Table 2).
	Gates    int `json:"gates"`
	LowGates int `json:"low_gates"`
	LCs      int `json:"lcs"`
	Sized    int `json:"sized"`
	// LowRatio = LowGates/Gates, AreaIncrease the relative area growth.
	LowRatio     float64 `json:"low_ratio"`
	AreaIncrease float64 `json:"area_increase"`
	// WorstSlack is the timing margin left after scaling: Tspec minus the
	// verified critical-path arrival, in ns. A successful run keeps it
	// non-negative up to the verification epsilon (1e-6 ns) — a larger
	// violation is an error, never a result. It is the timing axis of sweep
	// Pareto extraction.
	WorstSlack float64 `json:"worst_slack_ns"`
	// Runtime is the wall-clock time of the algorithm itself.
	Runtime time.Duration `json:"runtime_ns"`
	// STAEvals counts per-gate incremental timing evaluations spent by the
	// run — the work a full re-analysis per move would multiply by the
	// circuit size. The ratio STAEvals/(moves × gates) is the incremental
	// engine's win.
	STAEvals int64 `json:"sta_evals"`
	// CandEvals counts Dscale candidate-cache re-evaluations (zero for the
	// other algorithms); a full per-round rescan would pay roughly
	// gates × rounds. See core.Result.CandEvals.
	CandEvals int64 `json:"cand_evals"`
	// SimTime is the wall clock spent in logic simulation during the run.
	// Every run reads power from the design's baseline activity table, so
	// the flow reports 0; the field stays for wire compatibility.
	SimTime time.Duration `json:"sim_ns"`
	// RailGates counts live ordinary gates per rail index (RailGates[i] =
	// gates at rail i of Config.RailList) and LCCross breaks the level
	// converters down per crossed rail pair. Both are populated only for
	// configurations of more than two rails — at the classic two-rail setup
	// Gates/LowGates/LCs already say everything and the wire bytes stay
	// exactly what they were.
	RailGates []int        `json:"rail_gates,omitempty"`
	LCCross   []LCCrossing `json:"lc_crossings,omitempty"`
	// Circuit is the scaled clone, for inspection or BLIF export. It stays
	// local: the JSON encoding skips it, so results decoded from the wire
	// carry a nil Circuit.
	Circuit *netlist.Circuit `json:"-"`
}

// LCCrossing counts the level converters restoring one rail crossing: LCs
// converters whose driver sits at rail index From and whose consumers need
// rail index To (To < From — converters restore swing upward).
type LCCrossing struct {
	From int `json:"from"`
	To   int `json:"to"`
	LCs  int `json:"lcs"`
}

// railBreakdown fills the multi-rail result columns from a scaled circuit;
// a no-op at two rails, where the classic columns already carry everything.
func railBreakdown(fr *FlowResult, ckt *netlist.Circuit, lib *cell.Library) {
	n := lib.NumRails()
	if n <= 2 {
		return
	}
	fr.RailGates = ckt.RailGateCounts(n)
	for from, row := range ckt.LCCrossingCounts(n) {
		for to, k := range row {
			if k > 0 {
				fr.LCCross = append(fr.LCCross, LCCrossing{From: from, To: to, LCs: k})
			}
		}
	}
}

// coreOptions converts the config for internal/core.
func (d *Design) coreOptions() core.Options {
	o := core.DefaultOptions(d.Tspec)
	o.MaxIter = d.cfg.MaxIter
	o.MaxAreaIncrease = d.cfg.MaxAreaIncrease
	o.SimWords = d.cfg.SimWords
	o.SimWorkers = d.cfg.SimWorkers
	o.Seed = d.cfg.Seed
	o.Fclk = d.cfg.Fclk
	o.GreedySelect = d.cfg.GreedySelect
	o.GreedySizing = d.cfg.GreedySizing
	return o
}

// coreObserver bridges internal/core progress events onto a flow Observer;
// nil obs yields nil (no observation).
func coreObserver(circuit string, obs Observer) core.Observer {
	if obs == nil {
		return nil
	}
	return func(ce core.Event) {
		switch ce.Kind {
		case core.EventMove:
			obs(EventMove{Circuit: circuit, Algorithm: ce.Algorithm,
				Round: ce.Round, Gate: ce.Gate})
		case core.EventRound:
			obs(EventRoundDone{Circuit: circuit, Algorithm: ce.Algorithm,
				Round: ce.Round, Moves: ce.Moves, LowGates: ce.LowGates,
				Power: ce.Power, STAEvals: ce.STAEvals, WorstArrival: ce.WorstArrival})
		}
	}
}

// runOne is the one execution path of every algorithm run. On an engine
// whose annotation is settled for ckt it runs the algorithm's entry point
// with the design's baseline activity table, verifies the constraint with a
// fresh full analysis — verify, don't trust — reads power from the run's
// activity table, and emits the result. Flow runs call it on a fresh clone
// and engine and hand the scaled clone out (keep); warm runs call it inside a
// Checkpoint/Rollback fence on the shared engine, whose circuit is rolled
// back, so their results carry no netlist.
func (d *Design) runOne(ctx context.Context, inc *sta.Incremental, ckt *netlist.Circuit, algo Algorithm, obs Observer, keep bool) (*FlowResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var run func(*sta.Incremental, *netlist.Circuit, *cell.Library, core.Options) (*core.Result, error)
	switch algo {
	case AlgoCVS:
		run = core.RunCVSOn
	case AlgoDscale:
		run = core.DscaleOn
	case AlgoGscale:
		run = core.GscaleOn
	default:
		return nil, fmt.Errorf("dualvdd: unknown algorithm %q", algo)
	}
	lib := inc.Library()
	opts := d.coreOptions()
	opts.Ctx = ctx
	opts.Observer = coreObserver(d.Name, obs)
	opts.Activities = d.act
	start := time.Now() //lint:wallclock-ok timing metric only; never feeds results
	cres, err := run(inc, ckt, lib, opts)
	if err != nil {
		// A cancelled or expired context surfaces as exactly ctx.Err(),
		// unwrapped, so callers can compare against context.Canceled.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, fmt.Errorf("dualvdd: %s on %s: %w", algo, d.Name, err)
	}
	elapsed := time.Since(start) //lint:wallclock-ok timing metric only; never feeds results
	// The constraint must hold after every algorithm — verify, don't trust.
	t, err := sta.Analyze(ckt, lib, d.Tspec)
	if err != nil {
		return nil, err
	}
	if !t.Meets(1e-6) {
		return nil, fmt.Errorf("dualvdd: %s on %s violated timing: %.4f > %.4f",
			algo, d.Name, t.WorstArrival, d.Tspec)
	}
	// Activities are a property of the logic alone, and inserted level
	// converters alias their source's, so the run's table prices the scaled
	// circuit exactly as a fresh simulation would.
	pb := power.Estimate(ckt, lib, cres.Act, d.cfg.Fclk)
	gates := ckt.NumLiveGates() - ckt.NumLCs()
	fr := &FlowResult{
		Algorithm:    string(algo),
		Power:        pb.Total,
		ImprovePct:   (d.OrgPower - pb.Total) / d.OrgPower * 100,
		Gates:        gates,
		LowGates:     ckt.NumLowGates(),
		LCs:          ckt.NumLCs(),
		Sized:        cres.Sized,
		AreaIncrease: ckt.Area()/d.Circuit.Area() - 1,
		WorstSlack:   d.Tspec - t.WorstArrival,
		Runtime:      elapsed,
		STAEvals:     cres.STAEvals,
		CandEvals:    cres.CandEvals,
	}
	if keep {
		fr.Circuit = ckt
	}
	if gates > 0 {
		fr.LowRatio = float64(fr.LowGates) / float64(gates)
	}
	railBreakdown(fr, ckt, lib)
	obs.emit(EventResult{Circuit: d.Name, Result: fr})
	return fr, nil
}

// WriteBLIF exports a mapped (possibly scaled) circuit as .gate-form BLIF
// with ".volt" annotations.
func WriteBLIF(w io.Writer, ckt *netlist.Circuit) error {
	return blif.WriteCircuit(w, ckt)
}
