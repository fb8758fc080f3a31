package dualvdd_test

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"dualvdd"
	"dualvdd/internal/cell"
	"dualvdd/internal/core"
	"dualvdd/internal/netlist"
	"dualvdd/internal/power"
	"dualvdd/internal/sim"
	"dualvdd/internal/sta"
)

// referenceRun is the oracle every execution path is held to: one algorithm
// run composed from the substrate layers alone, sharing nothing with the
// flow's own run function. It scales a fresh clone of the design's circuit
// on a fresh incremental engine under lib, calls the algorithm's entry point
// with no activity table (so Dscale simulates for itself), verifies the
// constraint with a fresh full analysis, and prices the scaled netlist with
// activities from the reference interpreter. The scaled clone is returned as
// the result's Circuit.
func referenceRun(t testing.TB, d *dualvdd.Design, cfg dualvdd.Config, lib *cell.Library, algo dualvdd.Algorithm) *dualvdd.FlowResult {
	t.Helper()
	ckt := d.Circuit.Clone()
	inc, err := sta.NewIncremental(ckt, lib, d.Tspec)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(d.Tspec)
	opts.MaxIter = cfg.MaxIter
	opts.MaxAreaIncrease = cfg.MaxAreaIncrease
	opts.SimWords = cfg.SimWords
	opts.SimWorkers = cfg.SimWorkers
	opts.Seed = cfg.Seed
	opts.Fclk = cfg.Fclk
	opts.GreedySelect = cfg.GreedySelect
	opts.GreedySizing = cfg.GreedySizing
	run := map[dualvdd.Algorithm]func(*sta.Incremental, *netlist.Circuit, *cell.Library, core.Options) (*core.Result, error){
		dualvdd.AlgoCVS:    core.RunCVSOn,
		dualvdd.AlgoDscale: core.DscaleOn,
		dualvdd.AlgoGscale: core.GscaleOn,
	}[algo]
	cres, err := run(inc, ckt, lib, opts)
	if err != nil {
		t.Fatalf("reference %s on %s: %v", algo, d.Name, err)
	}
	tm, err := sta.Analyze(ckt, lib, d.Tspec)
	if err != nil {
		t.Fatal(err)
	}
	if !tm.Meets(1e-6) {
		t.Fatalf("reference %s on %s violated timing: %.4f > %.4f", algo, d.Name, tm.WorstArrival, d.Tspec)
	}
	ref, err := sim.RunReference(ckt, cfg.SimWords, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	pw := power.Estimate(ckt, lib, ref.Act, cfg.Fclk).Total
	gates := 0
	for _, g := range ckt.Gates {
		if !g.Dead && !g.IsLC {
			gates++
		}
	}
	fr := &dualvdd.FlowResult{
		Algorithm:    string(algo),
		Power:        pw,
		ImprovePct:   (d.OrgPower - pw) / d.OrgPower * 100,
		Gates:        gates,
		LowGates:     ckt.NumLowGates(),
		LCs:          ckt.NumLCs(),
		Sized:        cres.Sized,
		AreaIncrease: ckt.Area()/d.Circuit.Area() - 1,
		WorstSlack:   d.Tspec - tm.WorstArrival,
		STAEvals:     cres.STAEvals,
		CandEvals:    cres.CandEvals,
		Circuit:      ckt,
	}
	if gates > 0 {
		fr.LowRatio = float64(fr.LowGates) / float64(gates)
	}
	if n := lib.NumRails(); n > 2 {
		fr.RailGates = ckt.RailGateCounts(n)
		for from, row := range ckt.LCCrossingCounts(n) {
			for to, k := range row {
				if k > 0 {
					fr.LCCross = append(fr.LCCross, dualvdd.LCCrossing{From: from, To: to, LCs: k})
				}
			}
		}
	}
	return fr
}

// blifText renders a netlist as BLIF, the byte-level identity of a scaled
// circuit.
func blifText(t testing.TB, ckt *netlist.Circuit) string {
	t.Helper()
	var buf bytes.Buffer
	if err := dualvdd.WriteBLIF(&buf, ckt); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// bitEq compares two floats bit for bit — the flow promises identity, not
// approximation.
func bitEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireSameResult asserts every deterministic FlowResult field matches bit
// for bit between two runs. Runtime and SimTime are wall clock and Circuit is
// local-only — those three are the documented exceptions.
func requireSameResult(t *testing.T, label string, want, got *dualvdd.FlowResult) {
	t.Helper()
	if want.Algorithm != got.Algorithm {
		t.Fatalf("%s: algorithm %q vs %q", label, want.Algorithm, got.Algorithm)
	}
	if !bitEq(want.Power, got.Power) {
		t.Errorf("%s: power %v vs %v", label, want.Power, got.Power)
	}
	if !bitEq(want.ImprovePct, got.ImprovePct) {
		t.Errorf("%s: improve %v vs %v", label, want.ImprovePct, got.ImprovePct)
	}
	if !bitEq(want.LowRatio, got.LowRatio) {
		t.Errorf("%s: low ratio %v vs %v", label, want.LowRatio, got.LowRatio)
	}
	if !bitEq(want.AreaIncrease, got.AreaIncrease) {
		t.Errorf("%s: area %v vs %v", label, want.AreaIncrease, got.AreaIncrease)
	}
	if !bitEq(want.WorstSlack, got.WorstSlack) {
		t.Errorf("%s: slack %v vs %v", label, want.WorstSlack, got.WorstSlack)
	}
	if want.Gates != got.Gates || want.LowGates != got.LowGates ||
		want.LCs != got.LCs || want.Sized != got.Sized {
		t.Errorf("%s: counts (g=%d lg=%d lc=%d sz=%d) vs (g=%d lg=%d lc=%d sz=%d)", label,
			want.Gates, want.LowGates, want.LCs, want.Sized,
			got.Gates, got.LowGates, got.LCs, got.Sized)
	}
	if want.STAEvals != got.STAEvals {
		t.Errorf("%s: sta evals %d vs %d", label, want.STAEvals, got.STAEvals)
	}
	if want.CandEvals != got.CandEvals {
		t.Errorf("%s: cand evals %d vs %d", label, want.CandEvals, got.CandEvals)
	}
}

// requireReference holds a flow result to the reference composition bit for
// bit: every deterministic field, the multi-rail breakdown, and — when the
// flow handed its scaled netlist out — the netlist itself.
func requireReference(t *testing.T, label string, ref, got *dualvdd.FlowResult) {
	t.Helper()
	requireSameResult(t, label, ref, got)
	if !slices.Equal(ref.RailGates, got.RailGates) || !slices.Equal(ref.LCCross, got.LCCross) {
		t.Errorf("%s: rail breakdown %v/%v vs %v/%v", label, ref.RailGates, ref.LCCross, got.RailGates, got.LCCross)
	}
	if got.Circuit != nil && blifText(t, got.Circuit) != blifText(t, ref.Circuit) {
		t.Errorf("%s: scaled netlist differs from the reference", label)
	}
}
