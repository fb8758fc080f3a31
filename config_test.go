package dualvdd_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"dualvdd"
)

// TestConfigValidate is the table over the degenerate configurations that
// used to slip through to NaN or meaningless power numbers. Every failure
// wraps ErrInvalidConfig and follows the one documented shape
// "dualvdd: invalid config: <field>: <reason>".
func TestConfigValidate(t *testing.T) {
	mutate := func(f func(*dualvdd.Config)) dualvdd.Config {
		c := dualvdd.DefaultConfig()
		f(&c)
		return c
	}
	cases := []struct {
		name  string
		cfg   dualvdd.Config
		field string // "" = valid
	}{
		{"paper defaults", dualvdd.DefaultConfig(), ""},
		{"tight but legal", mutate(func(c *dualvdd.Config) { c.SlackFactor = 1.0 }), ""},
		{"no area budget", mutate(func(c *dualvdd.Config) { c.MaxAreaIncrease = 0 }), ""},
		{"zero max iter", mutate(func(c *dualvdd.Config) { c.MaxIter = 0 }), ""},
		{"one sim word", mutate(func(c *dualvdd.Config) { c.SimWords = 1 }), ""},

		{"zero config", dualvdd.Config{}, "vhigh"},
		{"vddl equals vddh", mutate(func(c *dualvdd.Config) { c.Vlow = c.Vhigh }), "vlow"},
		{"vddl above vddh", mutate(func(c *dualvdd.Config) { c.Vlow = c.Vhigh + 0.1 }), "vlow"},
		{"zero vddl", mutate(func(c *dualvdd.Config) { c.Vlow = 0 }), "vlow"},
		{"negative vddl", mutate(func(c *dualvdd.Config) { c.Vlow = -4.3 }), "vlow"},
		{"zero vddh", mutate(func(c *dualvdd.Config) { c.Vhigh = 0 }), "vhigh"},
		{"negative vddh", mutate(func(c *dualvdd.Config) { c.Vhigh = -5 }), "vhigh"},
		{"NaN vddh", mutate(func(c *dualvdd.Config) { c.Vhigh = math.NaN() }), "vhigh"},
		{"infinite vddl", mutate(func(c *dualvdd.Config) { c.Vlow = math.Inf(1) }), "vlow"},
		{"sub-1 slack factor", mutate(func(c *dualvdd.Config) { c.SlackFactor = 0.9 }), "slack_factor"},
		{"NaN slack factor", mutate(func(c *dualvdd.Config) { c.SlackFactor = math.NaN() }), "slack_factor"},
		{"negative area budget", mutate(func(c *dualvdd.Config) { c.MaxAreaIncrease = -0.1 }), "max_area_increase"},
		{"negative max iter", mutate(func(c *dualvdd.Config) { c.MaxIter = -1 }), "max_iter"},
		{"zero sim words", mutate(func(c *dualvdd.Config) { c.SimWords = 0 }), "sim_words"},
		{"negative sim words", mutate(func(c *dualvdd.Config) { c.SimWords = -8 }), "sim_words"},
		{"negative sim workers", mutate(func(c *dualvdd.Config) { c.SimWorkers = -1 }), "sim_workers"},
		{"zero clock", mutate(func(c *dualvdd.Config) { c.Fclk = 0 }), "fclk_hz"},
		{"negative clock", mutate(func(c *dualvdd.Config) { c.Fclk = -1e6 }), "fclk_hz"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("degenerate config accepted: %+v", tc.cfg)
			}
			if !errors.Is(err, dualvdd.ErrInvalidConfig) {
				t.Fatalf("error %v does not wrap ErrInvalidConfig", err)
			}
			if !strings.HasPrefix(err.Error(), "dualvdd: invalid config: "+tc.field+": ") {
				t.Fatalf("error %q does not follow the documented shape for field %s", err, tc.field)
			}
		})
	}
}

// TestDegenerateConfigNeverReachesNaN pins the fix the validation exists
// for: a degenerate voltage pair is rejected at every entry point — Prepare,
// Job submission, sweep expansion — instead of flowing into the cell library
// where it would surface as NaN delay derates and power ratios.
func TestDegenerateConfigNeverReachesNaN(t *testing.T) {
	ctx := context.Background()
	bad := dualvdd.DefaultConfig()
	bad.Vlow, bad.Vhigh = 5.0, 0 // zero high rail: 1/Vhigh² is +Inf

	if _, err := dualvdd.New(dualvdd.FromConfig(bad)).PrepareBenchmark(context.Background(), "x2"); !errors.Is(err, dualvdd.ErrInvalidConfig) {
		t.Fatalf("legacy Prepare returned %v, want ErrInvalidConfig", err)
	}
	flow := dualvdd.New(dualvdd.FromConfig(bad))
	if _, err := flow.PrepareBenchmark(ctx, "x2"); !errors.Is(err, dualvdd.ErrInvalidConfig) {
		t.Fatalf("Flow.PrepareBenchmark returned %v, want ErrInvalidConfig", err)
	}

	l := dualvdd.NewLocal()
	defer mustClose(t, l)
	job := dualvdd.BenchmarkJob("x2")
	job.Config = bad
	if _, err := l.Submit(ctx, job); !errors.Is(err, dualvdd.ErrInvalidConfig) {
		t.Fatalf("Submit returned %v, want ErrInvalidConfig", err)
	}

	s := dualvdd.Sweep{Circuits: dualvdd.SweepBenchmarks("x2"), Base: bad}
	if _, err := s.Points(); !errors.Is(err, dualvdd.ErrInvalidConfig) {
		t.Fatalf("sweep expansion returned %v, want ErrInvalidConfig", err)
	}
}
