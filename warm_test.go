package dualvdd_test

import (
	"context"
	"fmt"
	"testing"

	"dualvdd"
)

// TestWarmMatchesColdAcrossPoints holds both callers of the flow's one run
// function to the reference composition on every circuit of the bed, bit for
// bit: Flow.Run at the prepared two-rail point, scaled netlists included, and
// one WarmDesign's RunAt across a two-rail point, a three-rail point and back
// to the prepared pair — so any state leaking from point to point on the
// shared engine shows up. The (5.0, 3.7) point is where Gscale once found a
// fake finite separator on C1355 and C499.
func TestWarmMatchesColdAcrossPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("differential run over the whole bed is slow")
	}
	points := [][]float64{{5.0, 3.7}, {5.0, 4.3, 3.6}, {5.0, 4.3}}
	for _, name := range dualvdd.Benchmarks() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			flow := dualvdd.New(dualvdd.WithSimWords(16))
			wd, err := flow.PrepareWarmBenchmark(ctx, name)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			d := wd.Design
			oneShot, err := flow.Run(ctx, d)
			if err != nil {
				t.Fatalf("Flow.Run: %v", err)
			}
			for i, algo := range dualvdd.Algorithms() {
				if oneShot[i].Circuit == nil {
					t.Fatalf("Flow.Run %s handed no scaled netlist out", algo)
				}
				requireReference(t, "Flow.Run/"+string(algo), referenceRun(t, d, flow.Config(), d.Lib, algo), oneShot[i])
			}
			for _, rails := range points {
				warm, err := wd.RunAt(ctx, rails, nil, nil)
				if err != nil {
					t.Fatalf("RunAt %v: %v", rails, err)
				}
				lib, err := d.Lib.AtRails(rails)
				if err != nil {
					t.Fatal(err)
				}
				for i, algo := range dualvdd.Algorithms() {
					if warm[i].Circuit != nil {
						t.Fatalf("RunAt %v %s handed the rolled-back working clone out", rails, algo)
					}
					requireReference(t, fmt.Sprintf("RunAt%v/%s", rails, algo),
						referenceRun(t, d, flow.Config(), lib, algo), warm[i])
				}
			}
			if got, want := wd.Runs(), int64(len(points)*3); got != want {
				t.Errorf("Runs() = %d, want %d", got, want)
			}
		})
	}
}

// TestWarmCancelRestoresBaseline cancels a warm run mid-flight and checks the
// shared state still produces the reference result afterwards — the
// Rollback-on-every-path contract.
func TestWarmCancelRestoresBaseline(t *testing.T) {
	ctx := context.Background()
	flow := dualvdd.New(dualvdd.WithSimWords(16))
	wd, err := flow.PrepareWarmBenchmark(ctx, "rot")
	if err != nil {
		t.Fatalf("prepare warm: %v", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := wd.RunAt(cancelled, []float64{5.0, 4.3}, nil, nil); err == nil {
		t.Fatal("cancelled run succeeded")
	}

	res, err := wd.RunAt(ctx, []float64{5.0, 4.3}, []dualvdd.Algorithm{dualvdd.AlgoDscale}, nil)
	if err != nil {
		t.Fatalf("run after cancel: %v", err)
	}
	d := wd.Design
	requireReference(t, "Dscale-after-cancel", referenceRun(t, d, flow.Config(), d.Lib, dualvdd.AlgoDscale), res[0])
}

// TestWarmSweepMatchesColdSweep is the end-to-end path of a sweep: every
// point run through a Local — which shares one prepared state per circuit
// across the points of its chain — must match the reference composition on a
// design prepared fresh at that point's configuration, and the prep metrics
// must account for one build per circuit and one reuse for every other point.
func TestWarmSweepMatchesColdSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	ctx := context.Background()
	sweep := dualvdd.Sweep{
		Circuits: dualvdd.SweepBenchmarks("z4ml", "rot"),
		Base:     dualvdd.Config{SimWords: 64},
		Axes:     dualvdd.Axes{VDDL: []float64{3.3, 3.7, 4.3}},
	}

	l := dualvdd.NewLocal(dualvdd.LocalWorkers(2))
	rows, err := sweep.Run(ctx, l)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for i, row := range rows {
		flow := dualvdd.New(dualvdd.FromConfig(row.Point.Config))
		d, err := flow.PrepareBenchmark(ctx, row.Point.Circuit.Benchmark)
		if err != nil {
			t.Fatalf("point %d: prepare: %v", i, err)
		}
		if len(row.Status.Results) != len(row.Point.Algorithms) {
			t.Fatalf("point %d: %d results for %d algorithms", i, len(row.Status.Results), len(row.Point.Algorithms))
		}
		for j, algo := range row.Point.Algorithms {
			label := fmt.Sprintf("point %d %s/%s", i, d.Name, algo)
			requireReference(t, label, referenceRun(t, d, flow.Config(), d.Lib, algo), row.Status.Results[j])
		}
	}

	m := l.Metrics()
	if m.PrepBuilds != int64(len(sweep.Circuits)) {
		t.Errorf("PrepBuilds = %d, want %d (one per circuit)", m.PrepBuilds, len(sweep.Circuits))
	}
	if m.PrepReuses != int64(len(rows)-len(sweep.Circuits)) {
		t.Errorf("PrepReuses = %d, want %d", m.PrepReuses, len(rows)-len(sweep.Circuits))
	}
	if m.PrepGroups != len(sweep.Circuits) {
		t.Errorf("PrepGroups = %d, want %d", m.PrepGroups, len(sweep.Circuits))
	}
	if cerr := l.Close(ctx); cerr != nil {
		t.Fatalf("close: %v", cerr)
	}
}
