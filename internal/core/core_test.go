package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/mapper"
	"dualvdd/internal/mcnc"
	"dualvdd/internal/netlist"
	"dualvdd/internal/sim"
	"dualvdd/internal/sta"
)

var lib = cell.Compass06()

// buildChainTree builds a circuit with one deep chain (critical) and a
// shallow side branch (slack), both feeding POs:
//
//	a -> inv x depth -> po0 (critical)
//	b -> inv -> inv   -> po1 (slack)
func buildChainTree(depth int) *netlist.Circuit {
	c := netlist.New("chaintree")
	a := c.AddPI("a")
	b := c.AddPI("b")
	inv := lib.Smallest(cell.FINV)
	s := a
	for i := 0; i < depth; i++ {
		_, s = c.AddGate(fmt.Sprintf("deep%d", i), inv, s)
	}
	c.AddPO("po0", s)
	_, t1 := c.AddGate("side0", inv, b)
	_, t2 := c.AddGate("side1", inv, t1)
	c.AddPO("po1", t2)
	return c
}

// runFresh runs one algorithm entry point on a fresh incremental engine over
// ckt, the way a single standalone run does.
func runFresh(run func(*sta.Incremental, *netlist.Circuit, *cell.Library, Options) (*Result, error),
	ckt *netlist.Circuit, l *cell.Library, opts Options) (*Result, error) {
	inc, err := sta.NewIncremental(ckt, l, opts.Tspec)
	if err != nil {
		return nil, err
	}
	return run(inc, ckt, l, opts)
}

// tspecOf returns the circuit's own critical delay (the paper's constraint).
func tspecOf(t *testing.T, c *netlist.Circuit) float64 {
	t.Helper()
	d, err := sta.MinDelay(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCVSLowersSlackSideOnly(t *testing.T) {
	c := buildChainTree(10)
	tspec := tspecOf(t, c)
	res, err := CVS(c, lib, tspec, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// The side branch has huge slack (depth 2 vs 10) and must be lowered;
	// the deep chain has zero slack and must stay high.
	for _, g := range c.Gates {
		low := g.Volt == cell.VLow
		if g.Name[:4] == "side" && !low {
			t.Errorf("slack gate %s not lowered", g.Name)
		}
		if g.Name[:4] == "deep" && low {
			t.Errorf("critical gate %s lowered", g.Name)
		}
	}
	if res.Lowered != 2 {
		t.Fatalf("lowered %d gates, want 2", res.Lowered)
	}
	// The TCB is the critical PO-driving gate: it borders the outputs and
	// cannot take Vlow.
	if len(res.TCB) != 1 || c.Gates[res.TCB[0]].Name != fmt.Sprintf("deep%d", 9) {
		t.Fatalf("TCB = %v", res.TCB)
	}
}

func TestCVSClusterInvariant(t *testing.T) {
	// After CVS, every low gate's consumers must all be low or POs (the
	// paper's clustering rule that makes level restoration unnecessary).
	rng := rand.New(rand.NewSource(5))
	c := randomCircuit(rng, 8, 120)
	tspec := 1.08 * tspecOf(t, c) // give it some uniform slack to work with
	if _, err := CVS(c, lib, tspec, 1e-9); err != nil {
		t.Fatal(err)
	}
	assertClusterInvariant(t, c)
	assertTiming(t, c, tspec)
}

func assertClusterInvariant(t *testing.T, c *netlist.Circuit) {
	t.Helper()
	fan := c.BuildFanouts()
	for gi, g := range c.Gates {
		if g.Dead || g.Volt != cell.VLow {
			continue
		}
		for _, cn := range fan.Conns[c.GateSignal(gi)] {
			cg := c.Gates[cn.Gate]
			if cg.Volt != cell.VLow && !cg.IsLC {
				t.Fatalf("low gate %s drives high gate %s without level restoration",
					g.Name, cg.Name)
			}
		}
	}
}

func assertTiming(t *testing.T, c *netlist.Circuit, tspec float64) {
	t.Helper()
	tm, err := sta.Analyze(c, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	if !tm.Meets(1e-9) {
		t.Fatalf("timing violated: %.6f > %.6f", tm.WorstArrival, tspec)
	}
}

// randomCircuit builds a random mapped DAG over the default library.
func randomCircuit(rng *rand.Rand, nPI, nGates int) *netlist.Circuit {
	c := netlist.New("rand")
	for i := 0; i < nPI; i++ {
		c.AddPI(fmt.Sprintf("pi%d", i))
	}
	funcs := []cell.Func{
		cell.FINV, cell.FNAND2, cell.FNOR2, cell.FAND2, cell.FOR2,
		cell.FXOR2, cell.FNAND3, cell.FAOI21, cell.FMUX21,
	}
	consumed := make(map[netlist.Signal]bool)
	for k := 0; k < nGates; k++ {
		fn := funcs[rng.Intn(len(funcs))]
		cells := lib.CellsOf(fn)
		cl := cells[rng.Intn(len(cells))]
		ins := make([]netlist.Signal, cl.NumInputs())
		for pin := range ins {
			s := netlist.Signal(rng.Intn(c.NumSignals()))
			ins[pin] = s
			consumed[s] = true
		}
		c.AddGate(fmt.Sprintf("g%d", k), cl, ins...)
	}
	nPO := 0
	for s := netlist.Signal(nPI); int(s) < c.NumSignals(); s++ {
		if !consumed[s] {
			c.AddPO(fmt.Sprintf("po%d", nPO), s)
			nPO++
		}
	}
	return c
}

func TestDscaleInvariants(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 10, 150)
		tspec := 1.1 * tspecOf(t, c)
		opts := DefaultOptions(tspec)
		opts.SimWords = 32
		before := measurePower(t, c, opts)
		res, err := runFresh(DscaleOn, c, lib, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		after := measurePower(t, c, opts)
		assertTiming(t, c, tspec)
		assertLCDiscipline(t, c)
		if after > before {
			t.Fatalf("seed %d: Dscale increased power %.3g -> %.3g", seed, before, after)
		}
		if res.Lowered != c.NumLowGates() {
			t.Fatalf("seed %d: result reports %d low, circuit has %d", seed, res.Lowered, c.NumLowGates())
		}
	}
}

// assertLCDiscipline checks level-converter structure after Dscale: every
// low→high boundary crosses a converter, every converter is fed by a low
// gate and feeds at least one consumer, and no converter feeds a low gate
// (those connections must have been bypassed).
func assertLCDiscipline(t *testing.T, c *netlist.Circuit) {
	t.Helper()
	fan := c.BuildFanouts()
	for gi, g := range c.Gates {
		if g.Dead {
			continue
		}
		out := c.GateSignal(gi)
		if g.Volt == cell.VLow && !g.IsLC {
			for _, cn := range fan.Conns[out] {
				cg := c.Gates[cn.Gate]
				if cg.Volt != cell.VLow && !cg.IsLC {
					t.Fatalf("low gate %s drives high gate %s directly", g.Name, cg.Name)
				}
			}
		}
		if g.IsLC {
			src := c.GateOf(g.In[0])
			if src == nil || src.Volt != cell.VLow {
				t.Fatalf("level converter %s not fed by a low gate", g.Name)
			}
			if fan.Degree(out) == 0 {
				t.Fatalf("dangling level converter %s survived cleanup", g.Name)
			}
		}
	}
}

func measurePower(t *testing.T, c *netlist.Circuit, opts Options) float64 {
	t.Helper()
	r, err := sim.Run(c, opts.SimWords, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	fanouts := c.BuildFanouts()
	loads := sta.Loads(c, lib, fanouts)
	for gi, g := range c.Gates {
		if g.Dead {
			continue
		}
		out := c.GateSignal(gi)
		vdd := lib.VddOf(g.Volt)
		total += r.Act[out] * opts.Fclk * (loads[out] + g.Cell.InternalCap) * 1e-12 * vdd * vdd
		if g.IsLC {
			total += lib.LCStaticPower
		}
	}
	return total
}

func TestDscaleBeatsOrEqualsCVS(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 40))
		c1 := randomCircuit(rng, 9, 140)
		c2 := c1.Clone()
		tspec := 1.1 * tspecOf(t, c1)
		opts := DefaultOptions(tspec)
		opts.SimWords = 32
		if _, err := CVS(c1, lib, tspec, opts.Eps); err != nil {
			t.Fatal(err)
		}
		if _, err := runFresh(DscaleOn, c2, lib, opts); err != nil {
			t.Fatal(err)
		}
		pCVS := measurePower(t, c1, opts)
		pDs := measurePower(t, c2, opts)
		if pDs > pCVS+1e-15 {
			t.Fatalf("seed %d: Dscale power %.4g exceeds CVS power %.4g", seed, pDs, pCVS)
		}
		if c2.NumLowGates() < c1.NumLowGates() {
			t.Fatalf("seed %d: Dscale lowered fewer gates (%d) than CVS (%d)",
				seed, c2.NumLowGates(), c1.NumLowGates())
		}
	}
}

func TestGscaleInvariants(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed + 80))
		c := randomCircuit(rng, 10, 150)
		tspec := tspecOf(t, c) // zero slack: Gscale must create its own
		areaBefore := c.Area()
		opts := DefaultOptions(tspec)
		opts.SimWords = 32
		res, err := runFresh(GscaleOn, c, lib, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertTiming(t, c, tspec)
		assertClusterInvariant(t, c)
		if c.NumLCs() != 0 {
			t.Fatalf("seed %d: Gscale inserted level converters (cluster rule forbids them)", seed)
		}
		if grow := c.Area()/areaBefore - 1; grow > opts.MaxAreaIncrease+1e-9 {
			t.Fatalf("seed %d: area grew %.3f, budget %.3f", seed, grow, opts.MaxAreaIncrease)
		}
		if res.AreaIncrease < -1e-9 {
			t.Fatalf("seed %d: negative area increase %f", seed, res.AreaIncrease)
		}
	}
}

func TestGscaleCreatesSlackOnBalancedTree(t *testing.T) {
	// A perfectly balanced XOR tree: every path critical, CVS gets nothing.
	// Gscale must up-size and lower a substantial share of the tree — the
	// paper's signature result on C499/C1355/mux.
	c := netlist.New("xtree")
	var layer []netlist.Signal
	for i := 0; i < 32; i++ {
		layer = append(layer, c.AddPI(fmt.Sprintf("d%d", i)))
	}
	xor := lib.Smallest(cell.FXOR2)
	k := 0
	for len(layer) > 1 {
		var next []netlist.Signal
		for i := 0; i+1 < len(layer); i += 2 {
			_, s := c.AddGate(fmt.Sprintf("x%d", k), xor, layer[i], layer[i+1])
			k++
			next = append(next, s)
		}
		layer = next
	}
	c.AddPO("parity", layer[0])
	tspec := tspecOf(t, c)

	cvsC := c.Clone()
	r1, err := CVS(cvsC, lib, tspec, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Lowered != 0 {
		t.Fatalf("balanced tree: CVS lowered %d gates, want 0", r1.Lowered)
	}
	opts := DefaultOptions(tspec)
	opts.SimWords = 32
	res, err := runFresh(GscaleOn, c, lib, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lowered == 0 || res.Sized == 0 {
		t.Fatalf("Gscale failed to create slack on balanced tree: %+v", res)
	}
	assertTiming(t, c, tspec)
}

func TestGscaleRespectsTinyAreaBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomCircuit(rng, 8, 100)
	tspec := tspecOf(t, c)
	opts := DefaultOptions(tspec)
	opts.SimWords = 32
	opts.MaxAreaIncrease = 0.005 // nearly nothing
	areaBefore := c.Area()
	if _, err := runFresh(GscaleOn, c, lib, opts); err != nil {
		t.Fatal(err)
	}
	if grow := c.Area()/areaBefore - 1; grow > 0.005+1e-9 {
		t.Fatalf("area grew %.4f over the 0.005 budget", grow)
	}
}

func TestGscaleMaxIterZeroStillRunsCVS(t *testing.T) {
	c := buildChainTree(10)
	tspec := tspecOf(t, c)
	opts := DefaultOptions(tspec)
	opts.SimWords = 16
	opts.MaxIter = 0
	res, err := runFresh(GscaleOn, c, lib, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lowered < 2 {
		t.Fatalf("Gscale with maxIter=0 must still apply the initial CVS, lowered %d", res.Lowered)
	}
}

func TestEvalCandidateAccountsLevelConverter(t *testing.T) {
	// A gate with one high consumer needs a converter: its candidate must
	// carry LC delay and pay LC power.
	c := netlist.New("lc")
	a := c.AddPI("a")
	inv := lib.Smallest(cell.FINV)
	_, s1 := c.AddGate("u", inv, a)
	_, s2 := c.AddGate("v", inv, s1)
	c.AddPO("o", s2)
	tspec := tspecOf(t, c) * 3 // plenty of slack
	inc, err := sta.NewIncremental(c, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(c, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	cand, _ := evalCandidate(c, lib, inc, r.Act, 20e6, 0)
	if !cand.needLC {
		t.Fatal("candidate u drives high gate v: must need a level converter")
	}
	if cand.lcDelay <= 0 {
		t.Fatal("LC delay not charged")
	}
	// The same gate with its consumer already low needs no converter.
	inc.SetVolt(1, cell.VLow)
	cand2, _ := evalCandidate(c, lib, inc, r.Act, 20e6, 0)
	if cand2.needLC || cand2.lcDelay != 0 {
		t.Fatal("no converter needed for low consumer")
	}
	if cand2.gain <= cand.gain {
		t.Fatal("converter-free candidate must have the larger net gain")
	}
}

func TestApplyLowInsertsSharedConverter(t *testing.T) {
	// One low driver, two high consumers: exactly one converter, shared.
	c := netlist.New("share")
	a := c.AddPI("a")
	inv := lib.Smallest(cell.FINV)
	_, s := c.AddGate("drv", inv, a)
	c.AddGate("c1", inv, s)
	c.AddGate("c2", inv, s)
	c.AddPO("o1", c.GateSignal(1))
	c.AddPO("o2", c.GateSignal(2))
	inc, err := sta.NewIncremental(c, lib, 100)
	if err != nil {
		t.Fatal(err)
	}
	act := make([]float64, c.NumSignals())
	act[int(s)] = 0.25
	opts := DefaultOptions(100)
	st := newDscaleState(c, lib, inc, &opts, act)
	if err := st.applyLow(0); err != nil {
		t.Fatal(err)
	}
	act = st.act
	if got := c.NumLCs(); got != 1 {
		t.Fatalf("%d converters inserted, want 1 shared", got)
	}
	if got := act[c.NumSignals()-1]; got != 0.25 {
		t.Fatalf("converter activity not aliased from its source: %v", got)
	}
	if err := inc.Check(0); err != nil {
		t.Fatalf("incremental state stale after applyLow: %v", err)
	}
	lcSig := c.GateSignal(3)
	if c.Gates[1].In[0] != lcSig || c.Gates[2].In[0] != lcSig {
		t.Fatal("high consumers not rewired through the converter")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGreedySelectNeverBeatsMWIS(t *testing.T) {
	// The MWIS formulation maximises per-round gain; greedy can only tie or
	// lose on the round's selected weight. End-to-end it should not win by
	// more than noise; assert it doesn't beat MWIS substantially.
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 200))
		c1 := randomCircuit(rng, 9, 130)
		c2 := c1.Clone()
		tspec := 1.1 * tspecOf(t, c1)
		optsM := DefaultOptions(tspec)
		optsM.SimWords = 32
		optsG := optsM
		optsG.GreedySelect = true
		if _, err := runFresh(DscaleOn, c1, lib, optsM); err != nil {
			t.Fatal(err)
		}
		if _, err := runFresh(DscaleOn, c2, lib, optsG); err != nil {
			t.Fatal(err)
		}
		pM := measurePower(t, c1, optsM)
		pG := measurePower(t, c2, optsG)
		if pG < pM*0.98 {
			t.Fatalf("seed %d: greedy (%.4g) beat MWIS (%.4g) by >2%%: selection bug", seed, pG, pM)
		}
	}
}

func TestAlgorithmsSelfCheckAgainstFullSTA(t *testing.T) {
	// Differential harness at algorithm level: with SelfCheck on, every
	// Dscale round, Gscale iteration and CVS run cross-validates the
	// incremental engine against a fresh sta.Analyze. This drives the
	// structural mutation paths (LC insertion, pin rewiring, converter
	// removal) the pure sta-level differential tests cannot reach.
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 300))
		c := randomCircuit(rng, 9, 120)
		tspec := 1.1 * tspecOf(t, c)
		opts := DefaultOptions(tspec)
		opts.SimWords = 32
		opts.SelfCheck = true
		if _, err := runFresh(DscaleOn, c.Clone(), lib, opts); err != nil {
			t.Fatalf("seed %d: Dscale self-check: %v", seed, err)
		}
		if _, err := runFresh(GscaleOn, c.Clone(), lib, opts); err != nil {
			t.Fatalf("seed %d: Gscale self-check: %v", seed, err)
		}
		if _, err := runFresh(RunCVSOn, c.Clone(), lib, opts); err != nil {
			t.Fatalf("seed %d: CVS self-check: %v", seed, err)
		}
	}
}

func TestIncrementalPathMatchesReferenceResults(t *testing.T) {
	// The incremental rewrite must not move a single number: re-run the
	// algorithms with SelfCheck (which keeps validating state against the
	// oracle) and make sure power-relevant outcomes (lowered gates, LCs,
	// sizing, iterations) are invariant across repeated runs.
	rng := rand.New(rand.NewSource(77))
	c := randomCircuit(rng, 10, 160)
	tspec := 1.1 * tspecOf(t, c)
	opts := DefaultOptions(tspec)
	opts.SimWords = 32
	type entry = func(*sta.Incremental, *netlist.Circuit, *cell.Library, Options) (*Result, error)
	run := func(algo entry) (Result, Result) {
		a, err := runFresh(algo, c.Clone(), lib, opts)
		if err != nil {
			t.Fatal(err)
		}
		chk := opts
		chk.SelfCheck = true
		b, err := runFresh(algo, c.Clone(), lib, chk)
		if err != nil {
			t.Fatal(err)
		}
		return *a, *b
	}
	for name, algo := range map[string]entry{
		"Dscale": DscaleOn, "Gscale": GscaleOn, "CVS": RunCVSOn,
	} {
		a, b := run(algo)
		if a.Lowered != b.Lowered || a.LCs != b.LCs || a.Sized != b.Sized || a.Iterations != b.Iterations {
			t.Fatalf("%s: self-checked run diverged: %+v vs %+v", name, a, b)
		}
	}
}

func TestTCBDefinition(t *testing.T) {
	// Paper §2: a TCB node (1) violates timing if scaled and (2) has a
	// low-voltage fanout (or drives the boundary). Verify on the chain-tree.
	c := buildChainTree(6)
	tspec := tspecOf(t, c)
	res, err := CVS(c, lib, tspec, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := sta.Analyze(c, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	for _, gi := range res.TCB {
		g := c.Gates[gi]
		if g.Volt == cell.VLow {
			t.Fatalf("TCB gate %s is low", g.Name)
		}
		out := c.GateSignal(gi)
		if delta := tm.DeltaLow(c, lib, gi); tm.Slack[out]-delta >= 1e-9 {
			t.Fatalf("TCB gate %s could actually be scaled (slack %.4f, delta %.4f)",
				g.Name, tm.Slack[out], delta)
		}
	}
}

// TestDscaleCandidateCacheDifferential runs Dscale with SelfCheck on mapped
// MCNC circuits: every round, dscaleState.verify cross-checks the incremental
// candidate cache, the maintained MWIS adjacency and the running power total
// against from-scratch rebuilds, and the engine against a fresh analysis.
// This is the acceptance harness of the dirty-set maintenance.
func TestDscaleCandidateCacheDifferential(t *testing.T) {
	names := []string{"z4ml", "b9", "C880", "alu2", "sct"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			net, err := mcnc.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
			mres, err := mapper.Map(net, lib, mapper.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions(mres.Tspec)
			opts.SimWords = 64
			opts.SelfCheck = true
			res, err := runFresh(DscaleOn, mres.Circuit, lib, opts)
			if err != nil {
				t.Fatalf("Dscale self-check on %s: %v", name, err)
			}
			if res.CandEvals <= 0 {
				t.Fatal("candidate evaluation counter not maintained")
			}
			// The cache can never evaluate more than the rescan loop did:
			// live gates per round plus the initial full pass.
			bound := int64(mres.Circuit.NumLiveGates()) * int64(res.Iterations+1)
			if res.CandEvals > bound {
				t.Fatalf("CandEvals %d exceeds the full-rescan bound %d", res.CandEvals, bound)
			}
		})
	}
}

// TestDscaleInnerLoopAllocations pins the steady-state allocation behavior of
// the Dscale inner machinery: candidate evaluation is allocation-free, and
// the greedy-selection conflict tracking reuses its bitset scratch.
func TestDscaleInnerLoopAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := randomCircuit(rng, 9, 140)
	tspec := 1.3 * tspecOf(t, c)
	inc, err := sta.NewIncremental(c, lib, tspec)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(tspec)
	act := make([]float64, c.NumSignals())
	for i := range act {
		act[i] = 0.25
	}
	st := newDscaleState(c, lib, inc, &opts, act)

	var gis []int
	for gi, g := range c.Gates {
		if !g.Dead && !g.IsLC {
			gis = append(gis, gi)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		gi := gis[i%len(gis)]
		i++
		if _, ok := evalCandidate(c, lib, inc, act, opts.Fclk, gi); !ok {
			t.Fatal("evalCandidate refused a live gate")
		}
	})
	if avg > 0 {
		t.Fatalf("evalCandidate allocates %.1f objects per call, want 0", avg)
	}

	cands := st.gather()
	if len(cands) == 0 {
		t.Skip("no candidates on this circuit shape")
	}
	st.greedyIndependent(cands) // warm the scratch buffers
	avg = testing.AllocsPerRun(50, func() {
		st.greedyIndependent(cands)
	})
	// One allocation remains per call: the returned chosen-set copy.
	if avg > 2 {
		t.Fatalf("greedyIndependent allocates %.1f objects per call after warm-up, want <= 2", avg)
	}
}

// TestDscaleCandidateEvalsDropOnLargeCircuits pins the point of the
// incremental candidate maintenance: on the big circuits, total cache
// re-evaluations stay well below what the per-round full rescan paid
// (live gates × (rounds+1)), i.e. the per-round evaluation count drops
// super-linearly as rounds stop touching most of the circuit.
func TestDscaleCandidateEvalsDropOnLargeCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("maps the largest suite circuits")
	}
	for _, name := range []string{"rot", "C7552", "des"} {
		t.Run(name, func(t *testing.T) {
			net, err := mcnc.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
			mres, err := mapper.Map(net, lib, mapper.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions(mres.Tspec)
			res, err := runFresh(DscaleOn, mres.Circuit, lib, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations < 2 {
				t.Skipf("only %d rounds; nothing to amortise", res.Iterations)
			}
			full := int64(mres.Circuit.NumLiveGates()) * int64(res.Iterations+1)
			t.Logf("%s: %d live gates, %d rounds: candEvals %d vs full-rescan %d (%.1fx drop)",
				name, mres.Circuit.NumLiveGates(), res.Iterations, res.CandEvals, full,
				float64(full)/float64(res.CandEvals))
			if res.CandEvals*2 > full {
				t.Fatalf("candidate cache saved under 2x vs the rescan: %d of %d", res.CandEvals, full)
			}
		})
	}
}
