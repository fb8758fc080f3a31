package dualvdd_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"dualvdd"
)

func TestFlowOptionsResolveToConfig(t *testing.T) {
	flow := dualvdd.New(
		dualvdd.WithVoltages(3.3, 2.5),
		dualvdd.WithSlackFactor(1.3),
		dualvdd.WithAreaBudget(0.2),
		dualvdd.WithMaxIter(7),
		dualvdd.WithSimWords(64),
		dualvdd.WithSeed(99),
		dualvdd.WithClock(50e6),
		dualvdd.WithGreedySelect(true),
		dualvdd.WithGreedySizing(true),
	)
	want := dualvdd.Config{
		Vhigh: 3.3, Vlow: 2.5, SlackFactor: 1.3, MaxAreaIncrease: 0.2,
		MaxIter: 7, SimWords: 64, Seed: 99, Fclk: 50e6,
		GreedySelect: true, GreedySizing: true,
	}
	if got := flow.Config(); !reflect.DeepEqual(got, want) {
		t.Fatalf("options resolved to %+v, want %+v", got, want)
	}
	// The zero-option Flow reproduces the paper's defaults, and FromConfig
	// round-trips a legacy Config through the option surface.
	if got := dualvdd.New().Config(); !reflect.DeepEqual(got, dualvdd.DefaultConfig()) {
		t.Fatalf("New() config %+v differs from DefaultConfig", got)
	}
	if got := dualvdd.New(dualvdd.FromConfig(want)).Config(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FromConfig round trip lost fields: %+v", got)
	}
	// Later options override FromConfig.
	if got := dualvdd.New(dualvdd.FromConfig(want), dualvdd.WithSeed(1)).Config().Seed; got != 1 {
		t.Fatalf("WithSeed after FromConfig ignored: seed=%d", got)
	}
}

func TestFlowMatchesLegacyConfigAPI(t *testing.T) {
	// A Flow seeded from a flat Config and one built from the equivalent
	// options are the same pipeline: both run all three algorithms by
	// default and match the reference composition bit for bit, scaled
	// netlists included.
	ctx := context.Background()
	cfg := dualvdd.DefaultConfig()
	cfg.SimWords = 64
	for _, flow := range []*dualvdd.Flow{
		dualvdd.New(dualvdd.FromConfig(cfg)),
		dualvdd.New(dualvdd.WithSimWords(64)),
	} {
		if !reflect.DeepEqual(flow.Config(), cfg) {
			t.Fatalf("flow config %+v, want %+v", flow.Config(), cfg)
		}
		d, err := flow.PrepareBenchmark(ctx, "x2")
		if err != nil {
			t.Fatal(err)
		}
		results, err := flow.Run(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 3 {
			t.Fatalf("default Flow must run all three algorithms, got %d results", len(results))
		}
		for i, algo := range dualvdd.Algorithms() {
			requireReference(t, string(algo), referenceRun(t, d, cfg, d.Lib, algo), results[i])
		}
	}
}

func TestFlowRunGscaleWithoutFiniteSeparator(t *testing.T) {
	// At (5.0, 3.7) Gscale meets critical path networks on C1355 and C499
	// whose every node is fixed: no finite separator exists, and enough
	// uncuttable paths once wrapped the max-flow total into a fake finite
	// cut that panicked the run. Gscale must skip the push and finish, and
	// every result must match the reference composition.
	ctx := context.Background()
	flow := dualvdd.New(dualvdd.WithVoltages(5.0, 3.7), dualvdd.WithSimWords(16))
	for _, name := range []string{"C1355", "C499"} {
		d, err := flow.PrepareBenchmark(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		results, err := flow.Run(ctx, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, algo := range dualvdd.Algorithms() {
			requireReference(t, name+"/"+string(algo), referenceRun(t, d, flow.Config(), d.Lib, algo), results[i])
		}
	}
}

func TestFlowWithAlgorithmsSubset(t *testing.T) {
	flow := dualvdd.New(dualvdd.WithAlgorithms(dualvdd.AlgoGscale, dualvdd.AlgoCVS))
	d, err := flow.PrepareBenchmark(context.Background(), "z4ml")
	if err != nil {
		t.Fatal(err)
	}
	results, err := flow.Run(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Algorithm != "Gscale" || results[1].Algorithm != "CVS" {
		t.Fatalf("WithAlgorithms order not honored: %v", results)
	}
	if _, err := d.RunAlgorithm(context.Background(), dualvdd.Algorithm("bogus")); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestObserverEventStream(t *testing.T) {
	var events []dualvdd.Event
	flow := dualvdd.New(
		dualvdd.WithAlgorithms(dualvdd.AlgoDscale),
		dualvdd.WithObserver(func(ev dualvdd.Event) { events = append(events, ev) }),
	)
	ctx := context.Background()
	d, err := flow.PrepareBenchmark(ctx, "b9")
	if err != nil {
		t.Fatal(err)
	}
	results, err := flow.Run(ctx, d)
	if err != nil {
		t.Fatal(err)
	}

	if len(events) == 0 {
		t.Fatal("observer saw no events")
	}
	mapped, ok := events[0].(dualvdd.EventMapped)
	if !ok {
		t.Fatalf("first event %T, want EventMapped", events[0])
	}
	if mapped.Circuit != "b9" || mapped.Gates <= 0 || mapped.OrgPower != d.OrgPower {
		t.Fatalf("mapped event inconsistent with design: %+v", mapped)
	}
	last, ok := events[len(events)-1].(dualvdd.EventResult)
	if !ok {
		t.Fatalf("last event %T, want EventResult", events[len(events)-1])
	}
	if last.Result != results[0] {
		t.Fatal("result event does not carry the returned FlowResult")
	}

	moves, rounds, lastRound := 0, 0, -1
	for _, ev := range events {
		switch e := ev.(type) {
		case dualvdd.EventMove:
			if e.Circuit != "b9" || e.Algorithm != "Dscale" {
				t.Fatalf("mislabeled move event: %+v", e)
			}
			moves++
		case dualvdd.EventRoundDone:
			if e.Algorithm != "Dscale" || e.Round <= lastRound {
				t.Fatalf("rounds not increasing: %+v after round %d", e, lastRound)
			}
			if e.Power <= 0 || e.STAEvals <= 0 || e.WorstArrival <= 0 {
				t.Fatalf("Dscale round event missing live data: %+v", e)
			}
			lastRound = e.Round
			rounds++
		}
	}
	if moves == 0 || rounds == 0 {
		t.Fatalf("event stream incomplete: %d moves, %d rounds", moves, rounds)
	}
	// Every accepted move must be visible: the run's low-gate count is the
	// move count (Dscale only lowers; nothing raises a gate back).
	if moves != results[0].LowGates {
		t.Fatalf("%d move events for %d lowered gates", moves, results[0].LowGates)
	}
}

func TestRunContextCancelMidGscale(t *testing.T) {
	// Cancel from inside the observer on the first finished Gscale push:
	// the run must abort with ctx.Err() within one iteration and must not
	// corrupt the design's pristine circuit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	flow := dualvdd.New(dualvdd.WithObserver(func(ev dualvdd.Event) {
		if e, ok := ev.(dualvdd.EventRoundDone); ok && e.Algorithm == "Gscale" {
			rounds++
			cancel()
		}
	}))
	d, err := flow.PrepareBenchmark(ctx, "alu2") // ~15 Gscale pushes normally
	if err != nil {
		t.Fatal(err)
	}
	before := d.Circuit.CollectStats()

	_, err = d.RunAlgorithm(ctx, dualvdd.AlgoGscale)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Gscale returned %v, want context.Canceled", err)
	}
	if rounds != 1 {
		t.Fatalf("run continued for %d rounds after cancellation, want 1", rounds)
	}
	if after := d.Circuit.CollectStats(); after != before {
		t.Fatalf("cancellation corrupted the pristine circuit: %+v -> %+v", before, after)
	}
	// The design stays usable: a fresh context completes normally.
	res, err := d.RunAlgorithm(context.Background(), dualvdd.AlgoGscale)
	if err != nil {
		t.Fatal(err)
	}
	if res.ImprovePct <= 0 {
		t.Fatalf("post-cancel rerun degenerate: %+v", res)
	}
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	cfg := dualvdd.DefaultConfig()
	d, err := dualvdd.New(dualvdd.FromConfig(cfg)).PrepareBenchmark(context.Background(), "z4ml")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range dualvdd.Algorithms() {
		if _, err := d.RunAlgorithm(ctx, algo); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
		}
	}
	if _, err := dualvdd.New(dualvdd.FromConfig(cfg)).Prepare(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Prepare ignored cancelled context: %v", err)
	}
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	flow := dualvdd.New()
	if _, err := flow.PrepareBenchmark(ctx, "z4ml"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: got %v, want context.DeadlineExceeded", err)
	}
}
