package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"

	"dualvdd"
	"dualvdd/internal/blif"
	"dualvdd/internal/cell"
	"dualvdd/internal/core"
	"dualvdd/internal/logic"
	"dualvdd/internal/mapper"
	"dualvdd/internal/netlist"
	"dualvdd/internal/power"
	"dualvdd/internal/sim"
	"dualvdd/internal/sta"
)

// outcome is the deterministic part of one algorithm result: every
// FlowResult field except the wall clocks and the netlist.
type outcome struct {
	Algorithm                          string
	Power, ImprovePct                  float64
	Gates, LowGates, LCs, Sized        int
	LowRatio, AreaIncrease, WorstSlack float64
	STAEvals, CandEvals                int64
	RailGates                          []int
	LCCross                            []dualvdd.LCCrossing
}

func outcomeOf(fr *dualvdd.FlowResult) outcome {
	return outcome{
		Algorithm: fr.Algorithm, Power: fr.Power, ImprovePct: fr.ImprovePct,
		Gates: fr.Gates, LowGates: fr.LowGates, LCs: fr.LCs, Sized: fr.Sized,
		LowRatio: fr.LowRatio, AreaIncrease: fr.AreaIncrease, WorstSlack: fr.WorstSlack,
		STAEvals: fr.STAEvals, CandEvals: fr.CandEvals,
		RailGates: fr.RailGates, LCCross: fr.LCCross,
	}
}

func outcomesOf(frs []*dualvdd.FlowResult) []outcome {
	out := make([]outcome, len(frs))
	for i, fr := range frs {
		out[i] = outcomeOf(fr)
	}
	return out
}

// bits renders a float by its bit pattern, so equal text means equal bits.
func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// String is the canonical text of the outcome; two outcomes are bit-identical
// exactly when their texts are equal.
func (o outcome) String() string {
	return fmt.Sprintf("%s p=%s i=%s g=%d lo=%d lc=%d sz=%d r=%s a=%s s=%s sta=%d cand=%d rails=%v cross=%v",
		o.Algorithm, bits(o.Power), bits(o.ImprovePct), o.Gates, o.LowGates, o.LCs, o.Sized,
		bits(o.LowRatio), bits(o.AreaIncrease), bits(o.WorstSlack), o.STAEvals, o.CandEvals, o.RailGates, o.LCCross)
}

// designInfo is the deterministic summary of a prepared design.
type designInfo struct {
	Gates                     int
	MinDelay, Tspec, OrgPower float64
}

func (d designInfo) String() string {
	return fmt.Sprintf("gates=%d min=%s tspec=%s org=%s", d.Gates, bits(d.MinDelay), bits(d.Tspec), bits(d.OrgPower))
}

func designOf(d *dualvdd.Design) designInfo {
	return designInfo{Gates: d.Circuit.NumLiveGates(), MinDelay: d.MinDelay, Tspec: d.Tspec, OrgPower: d.OrgPower}
}

// resultText is the canonical text of a design and its outcomes, the unit of
// every bit-for-bit comparison and of the digest.
func resultText(d designInfo, outs []outcome) string {
	var b strings.Builder
	b.WriteString(d.String())
	for _, o := range outs {
		b.WriteString("\n  ")
		b.WriteString(o.String())
	}
	return b.String()
}

// counters are the work counts of the traced composition. They repeat for
// one seed, exactly but for RecoverAllocs (see allocSlack); the determinism
// self-check holds them to that.
type counters struct {
	RecoverFullAnalyses, RecoverFullEvals, RecoverAllocs int64
	MappedGates                                          int64
	StaFullAnalyses, StaFullEvals, StaIncEvals           int64
	SimRuns, SimWordEvals                                int64
	Moves, Rounds, CandEvals                             int64
}

// processCounters snapshots the process-wide sta and sim counters.
func processCounters() counters {
	return counters{
		StaFullAnalyses: sta.FullAnalyses(), StaFullEvals: sta.FullEvals(),
		SimRuns: sim.Runs(), SimWordEvals: sim.WordEvals(),
	}
}

// addProcessDelta adds the process-wide counter movement since before.
func (c *counters) addProcessDelta(before counters) {
	now := processCounters()
	c.StaFullAnalyses += now.StaFullAnalyses - before.StaFullAnalyses
	c.StaFullEvals += now.StaFullEvals - before.StaFullEvals
	c.SimRuns += now.SimRuns - before.SimRuns
	c.SimWordEvals += now.SimWordEvals - before.SimWordEvals
}

// layers composes the flow from the layer entry points, timing each call as a
// span of one op. With a nil tracer it runs the identical calls untimed.
type layers struct {
	tr  *tracer
	op  int
	cnt *counters
}

// prep is what Flow.LoadBLIF prepares, rebuilt from the layer calls.
type prep struct {
	cfg                       dualvdd.Config
	lib                       *cell.Library
	ckt                       *netlist.Circuit
	minDelay, tspec, orgPower float64
}

func (p *prep) design() designInfo {
	return designInfo{Gates: p.ckt.NumLiveGates(), MinDelay: p.minDelay, Tspec: p.tspec, OrgPower: p.orgPower}
}

// prepare parses, covers, recovers area, takes the constraint and measures
// the baseline power: the calls mapper.Map and Flow.LoadBLIF make, in order.
func (l *layers) prepare(parent int, text string, cfg dualvdd.Config) (*prep, error) {
	var net *logic.Network
	err := l.tr.around("blif.parse", l.op, parent, func() (err error) {
		net, err = blif.ParseNetwork(strings.NewReader(text))
		return err
	})
	if err != nil {
		return nil, err
	}
	p := &prep{cfg: cfg, lib: cell.Compass06Rails(cfg.RailList())}
	mopts := mapper.DefaultOptions()
	mopts.SlackFactor = cfg.SlackFactor
	mopts.AreaRecovery = false
	var mres *mapper.Result
	err = l.tr.around("mapper.cover", l.op, parent, func() (err error) {
		mres, err = mapper.Map(net, p.lib, mopts)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.ckt, p.minDelay = mres.Circuit, mres.MinDelay

	before := processCounters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	err = l.tr.around("mapper.recover", l.op, parent, func() error {
		return mapper.RecoverArea(p.ckt, p.lib, p.minDelay*cfg.SlackFactor, mopts.Eps)
	})
	runtime.ReadMemStats(&ms1)
	after := processCounters()
	l.cnt.RecoverFullAnalyses += after.StaFullAnalyses - before.StaFullAnalyses
	l.cnt.RecoverFullEvals += after.StaFullEvals - before.StaFullEvals
	l.cnt.RecoverAllocs += int64(ms1.Mallocs - ms0.Mallocs)
	if err != nil {
		return nil, err
	}
	l.cnt.MappedGates += int64(p.ckt.NumLiveGates())

	err = l.tr.around("sta.mindelay", l.op, parent, func() (err error) {
		p.tspec, err = sta.MinDelay(p.ckt, p.lib)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = l.tr.around("sim.baseline", l.op, parent, func() error {
		pb, _, err := power.EstimateRandomParallel(p.ckt, p.lib, cfg.SimWords, cfg.Seed, cfg.Fclk, cfg.SimWorkers)
		if err != nil {
			return err
		}
		p.orgPower = pb.Total
		return nil
	})
	return p, err
}

// coreOptions converts the config the way the flow does.
func (l *layers) coreOptions(p *prep) core.Options {
	o := core.DefaultOptions(p.tspec)
	o.MaxIter = p.cfg.MaxIter
	o.MaxAreaIncrease = p.cfg.MaxAreaIncrease
	o.SimWords = p.cfg.SimWords
	o.SimWorkers = p.cfg.SimWorkers
	o.Seed = p.cfg.Seed
	o.Fclk = p.cfg.Fclk
	o.GreedySelect = p.cfg.GreedySelect
	o.GreedySizing = p.cfg.GreedySizing
	o.Ctx = context.Background()
	o.Observer = func(ev core.Event) {
		switch ev.Kind {
		case core.EventMove:
			l.cnt.Moves++
		case core.EventRound:
			l.cnt.Rounds++
		}
	}
	return o
}

// runOn calls the named algorithm's *On entry point inside its span.
func (l *layers) runOn(parent int, algo dualvdd.Algorithm, inc *sta.Incremental, ckt *netlist.Circuit, lib *cell.Library, opts core.Options) (*core.Result, error) {
	var fn func(*sta.Incremental, *netlist.Circuit, *cell.Library, core.Options) (*core.Result, error)
	switch algo {
	case dualvdd.AlgoCVS:
		fn = core.RunCVSOn
	case dualvdd.AlgoDscale:
		fn = core.DscaleOn
	case dualvdd.AlgoGscale:
		fn = core.GscaleOn
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
	var res *core.Result
	err := l.tr.around("core."+strings.ToLower(string(algo)), l.op, parent, func() (err error) {
		res, err = fn(inc, ckt, lib, opts)
		return err
	})
	if err == nil {
		l.cnt.StaIncEvals += res.STAEvals
		l.cnt.CandEvals += res.CandEvals
	}
	return res, err
}

// outcome assembles the result fields exactly as the flow does.
func (p *prep) outcome(algo dualvdd.Algorithm, ckt *netlist.Circuit, lib *cell.Library, pw, slack float64, cres *core.Result) outcome {
	gates := 0
	for _, g := range ckt.Gates {
		if !g.Dead && !g.IsLC {
			gates++
		}
	}
	o := outcome{
		Algorithm: string(algo), Power: pw, ImprovePct: (p.orgPower - pw) / p.orgPower * 100,
		Gates: gates, LowGates: ckt.NumLowGates(), LCs: ckt.NumLCs(), Sized: cres.Sized,
		AreaIncrease: ckt.Area()/p.ckt.Area() - 1, WorstSlack: slack,
		STAEvals: cres.STAEvals, CandEvals: cres.CandEvals,
	}
	if gates > 0 {
		o.LowRatio = float64(o.LowGates) / float64(gates)
	}
	if n := lib.NumRails(); n > 2 {
		o.RailGates = ckt.RailGateCounts(n)
		for from, row := range ckt.LCCrossingCounts(n) {
			for to, k := range row {
				if k > 0 {
					o.LCCross = append(o.LCCross, dualvdd.LCCrossing{From: from, To: to, LCs: k})
				}
			}
		}
	}
	return o
}

// runCold runs one algorithm the way Flow.Run does: a fresh engine on a
// clone, the *On entry point, a full re-analysis and a fresh simulation.
func (l *layers) runCold(parent int, p *prep, algo dualvdd.Algorithm) (outcome, *netlist.Circuit, error) {
	aid := l.tr.begin("algo", l.op, parent)
	defer l.tr.end(aid)
	ckt := p.ckt.Clone()
	var inc *sta.Incremental
	err := l.tr.around("sta.newinc", l.op, aid, func() (err error) {
		inc, err = sta.NewIncremental(ckt, p.lib, p.tspec)
		return err
	})
	if err != nil {
		return outcome{}, nil, err
	}
	cres, err := l.runOn(aid, algo, inc, ckt, p.lib, l.coreOptions(p))
	if err != nil {
		return outcome{}, nil, err
	}
	var t *sta.Timing
	err = l.tr.around("sta.verify", l.op, aid, func() (err error) {
		t, err = sta.Analyze(ckt, p.lib, p.tspec)
		return err
	})
	if err != nil {
		return outcome{}, nil, err
	}
	if !t.Meets(1e-6) {
		return outcome{}, nil, fmt.Errorf("%s violated timing: %.4f > %.4f", algo, t.WorstArrival, p.tspec)
	}
	var pw float64
	err = l.tr.around("sim.final", l.op, aid, func() error {
		pb, _, err := power.EstimateRandomParallel(ckt, p.lib, p.cfg.SimWords, p.cfg.Seed, p.cfg.Fclk, p.cfg.SimWorkers)
		if err == nil {
			pw = pb.Total
		}
		return err
	})
	if err != nil {
		return outcome{}, nil, err
	}
	return p.outcome(algo, ckt, p.lib, pw, p.tspec-t.WorstArrival, cres), ckt, nil
}

// runAtEach runs WarmDesign.RunAt once per algorithm at one rail vector,
// each call a "runat" span. Every RunAt retargets the engine and fences each
// algorithm with a checkpoint and a rollback, so the three calls reproduce
// one RunAt of all three. The warm path has no finer entry point the ROADMAP
// keeps, so the time of the *On call inside each RunAt is the flow's own
// FlowResult.Runtime, summed per algorithm into coreMs on traced runs.
func (l *layers) runAtEach(parent int, wd *dualvdd.WarmDesign, rails []float64, coreMs map[string]float64) ([]outcome, error) {
	obs := func(ev dualvdd.Event) {
		switch ev.(type) {
		case dualvdd.EventMove:
			l.cnt.Moves++
		case dualvdd.EventRoundDone:
			l.cnt.Rounds++
		}
	}
	var outs []outcome
	for _, algo := range dualvdd.Algorithms() {
		var res []*dualvdd.FlowResult
		err := l.tr.around("runat", l.op, parent, func() (err error) {
			res, err = wd.RunAt(context.Background(), rails, []dualvdd.Algorithm{algo}, obs)
			return err
		})
		if err != nil {
			return nil, err
		}
		fr := res[0]
		l.cnt.StaIncEvals += fr.STAEvals
		l.cnt.CandEvals += fr.CandEvals
		if l.tr != nil {
			coreMs["core."+strings.ToLower(string(algo))+"_ms"] += float64(fr.Runtime.Microseconds()) / 1e3
		}
		outs = append(outs, outcomeOf(fr))
	}
	return outs, nil
}

// circuitText is the mapped .gate BLIF of a circuit, for netlist equality.
func circuitText(c *netlist.Circuit) string {
	var b bytes.Buffer
	if err := blif.WriteCircuit(&b, c); err != nil {
		return "error: " + err.Error()
	}
	return b.String()
}

// protect runs fn and turns a panic into an error, so one failing op is
// counted instead of ending the run.
func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}
