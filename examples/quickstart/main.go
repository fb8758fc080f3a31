// Quickstart: the paper's flow end to end through the public API. It
// serialises a 16-bit ripple adder — the arithmetic workload of the paper's
// my_adder — as technology-independent BLIF, loads it back through the Flow,
// runs CVS, Dscale and Gscale, and exports each scaled netlist as .gate-form
// BLIF with .volt annotations, re-parsing it to check that the voltage
// assignments and level converters survive the interchange.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"dualvdd"
	"dualvdd/internal/blif"
	"dualvdd/internal/mcnc"
)

func main() {
	// 1. A source network, serialised the way MCNC circuits ship.
	var src bytes.Buffer
	if err := blif.WriteNetwork(&src, mcnc.Adder("adder16", 16)); err != nil {
		log.Fatal(err)
	}

	// 2. A Flow is the configured pipeline: LoadBLIF technology-maps the
	// model against the dual-voltage library, relaxes the timing constraint
	// 20% as the paper does and measures the original power; Run applies
	// the three algorithms to fresh clones. The zero-option New reproduces
	// the paper's setup.
	ctx := context.Background()
	flow := dualvdd.New(dualvdd.WithVoltages(5.0, 4.3))
	cfg := flow.Config()
	d, err := flow.LoadBLIF(ctx, &src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d mapped gates, min delay %.2f ns, constraint %.2f ns, original power %.2f uW at %.1fV\n\n",
		d.Name, d.Circuit.NumLiveGates(), d.MinDelay, d.Tspec, d.OrgPower*1e6, cfg.Vhigh)
	results, err := flow.Run(ctx, d)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Report each result and prove its scaled netlist round-trips.
	fmt.Printf("%-7s %8s %9s %5s %6s %7s  %s\n", "algo", "saved%", "low", "LCs", "sized", "area", "BLIF round trip")
	for _, res := range results {
		var out bytes.Buffer
		if err := dualvdd.WriteBLIF(&out, res.Circuit); err != nil {
			log.Fatal(err)
		}
		back, err := blif.ParseCircuit(&out, d.Lib)
		if err != nil {
			log.Fatal(err)
		}
		if back.NumLowGates() != res.Circuit.NumLowGates() || back.NumLCs() != res.Circuit.NumLCs() {
			log.Fatalf("%s: BLIF round trip lost scaling information", res.Algorithm)
		}
		fmt.Printf("%-7s %8.2f %5d/%-3d %5d %6d %+6.1f%%  ok\n",
			res.Algorithm, res.ImprovePct, res.LowGates, res.Gates, res.LCs, res.Sized, res.AreaIncrease*100)
	}
	fmt.Printf("\n%.1fV gates are the low ones; Gscale ≥ Dscale ≥ CVS — the paper's Table 1 in miniature.\n", cfg.Vlow)
}
