package dualvdd_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dualvdd"
	"dualvdd/internal/blif"
	"dualvdd/internal/cell"
	"dualvdd/internal/sta"
)

func TestPrepareBenchmarkBasics(t *testing.T) {
	cfg := dualvdd.DefaultConfig()
	d, err := dualvdd.New(dualvdd.FromConfig(cfg)).PrepareBenchmark(context.Background(), "z4ml")
	if err != nil {
		t.Fatal(err)
	}
	if d.OrgPower <= 0 {
		t.Fatalf("original power = %v", d.OrgPower)
	}
	if d.Tspec < d.MinDelay || d.Tspec > 1.2*d.MinDelay+1e-9 {
		t.Fatalf("Tspec %.4f outside [minDelay, 1.2*minDelay] = [%.4f, %.4f]",
			d.Tspec, d.MinDelay, 1.2*d.MinDelay)
	}
	if got := d.Circuit.NumLowGates(); got != 0 {
		t.Fatalf("fresh design has %d low gates", got)
	}
}

func TestPrepareBenchmarkUnknownName(t *testing.T) {
	if _, err := dualvdd.New().PrepareBenchmark(context.Background(), "nonesuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestBenchmarksListMatchesPaperCount(t *testing.T) {
	if got := len(dualvdd.Benchmarks()); got != 39 {
		t.Fatalf("suite has %d circuits, the paper uses 39", got)
	}
}

func TestRunsDoNotMutateDesign(t *testing.T) {
	cfg := dualvdd.DefaultConfig()
	d, err := dualvdd.New(dualvdd.FromConfig(cfg)).PrepareBenchmark(context.Background(), "x2")
	if err != nil {
		t.Fatal(err)
	}
	before := d.Circuit.CollectStats()
	if _, err := d.RunAlgorithm(context.Background(), dualvdd.AlgoGscale); err != nil {
		t.Fatal(err)
	}
	if after := d.Circuit.CollectStats(); after != before {
		t.Fatalf("Gscale mutated the pristine circuit: %+v -> %+v", before, after)
	}
}

func TestFlowResultTimingAlwaysMet(t *testing.T) {
	cfg := dualvdd.DefaultConfig()
	for _, name := range []string{"z4ml", "b9", "C432"} {
		d, err := dualvdd.New(dualvdd.FromConfig(cfg)).PrepareBenchmark(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range dualvdd.Algorithms() {
			res, err := d.RunAlgorithm(context.Background(), algo)
			if err != nil {
				t.Fatal(err)
			}
			tm, err := sta.Analyze(res.Circuit, d.Lib, d.Tspec)
			if err != nil {
				t.Fatal(err)
			}
			if !tm.Meets(1e-6) {
				t.Fatalf("%s %s: timing violated: %.4f > %.4f",
					name, res.Algorithm, tm.WorstArrival, d.Tspec)
			}
		}
	}
}

func TestWriteBLIFRoundTripPreservesScaling(t *testing.T) {
	cfg := dualvdd.DefaultConfig()
	d, err := dualvdd.New(dualvdd.FromConfig(cfg)).PrepareBenchmark(context.Background(), "b9")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunAlgorithm(context.Background(), dualvdd.AlgoDscale)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dualvdd.WriteBLIF(&buf, res.Circuit); err != nil {
		t.Fatal(err)
	}
	back, err := blif.ParseCircuit(strings.NewReader(buf.String()), d.Lib)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String()[:min(2000, buf.Len())])
	}
	if got, want := back.NumLowGates(), res.Circuit.NumLowGates(); got != want {
		t.Fatalf("round trip lost voltage assignments: %d vs %d", got, want)
	}
	if got, want := back.NumLCs(), res.Circuit.NumLCs(); got != want {
		t.Fatalf("round trip lost level converters: %d vs %d", got, want)
	}
}

func TestLoadBLIFFlow(t *testing.T) {
	src := `
.model tiny
.inputs a b c
.outputs f g
.names a b x
11 1
.names x c f
1- 1
-1 1
.names a c g
10 1
01 1
.end
`
	d, err := dualvdd.New().LoadBLIF(context.Background(), strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "tiny" {
		t.Fatalf("name = %s", d.Name)
	}
	res, err := d.RunAlgorithm(context.Background(), dualvdd.AlgoCVS)
	if err != nil {
		t.Fatal(err)
	}
	if res.ImprovePct < 0 {
		t.Fatalf("CVS worsened power: %.2f%%", res.ImprovePct)
	}
}

func TestVoltageSweepMonotonicPotential(t *testing.T) {
	// The quadratic law: with everything else fixed, the per-gate power
	// ratio falls with Vlow. (Realised savings need not be monotone — the
	// delay penalty rises too — but the library-level ratio must be.)
	prev := 1.0
	for _, vlow := range []float64{4.7, 4.3, 3.9} {
		lib := cell.Compass06At(5.0, vlow)
		if r := lib.PowerRatio(); r >= prev {
			t.Fatalf("power ratio %.3f not decreasing at Vlow=%.1f", r, vlow)
		} else {
			prev = r
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
