package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randDAG builds a random DAG on n nodes where edges always point from lower
// to higher index, so acyclicity holds by construction.
func randDAG(rng *rand.Rand, n int, p float64) [][]int {
	succ := make([][]int, n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				succ[u] = append(succ[u], v)
			}
		}
	}
	return succ
}

func isAntichain(n int, succ [][]int, set []int) bool {
	reach := make([][]bool, n)
	order := topoOrder(n, succ)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		for _, v := range succ[u] {
			reach[u][v] = true
			for w := 0; w < n; w++ {
				if reach[v][w] {
					reach[u][w] = true
				}
			}
		}
	}
	for i, a := range set {
		for _, b := range set[i+1:] {
			if reach[a][b] || reach[b][a] {
				return false
			}
		}
	}
	return true
}

func TestMaxWeightAntichainSmallChain(t *testing.T) {
	// 0 -> 1 -> 2: a pure chain; the best antichain is the heaviest node.
	succ := [][]int{{1}, {2}, {}}
	set, w := MaxWeightAntichain(3, succ, []int64{3, 5, 4})
	if w != 5 || len(set) != 1 || set[0] != 1 {
		t.Fatalf("chain antichain = %v weight %d, want [1] weight 5", set, w)
	}
}

func TestMaxWeightAntichainParallel(t *testing.T) {
	// Two independent chains: best takes the max of each chain.
	succ := [][]int{{1}, {}, {3}, {}}
	set, w := MaxWeightAntichain(4, succ, []int64{3, 5, 4, 1})
	if w != 9 {
		t.Fatalf("parallel antichain weight = %d (%v), want 9", w, set)
	}
	if !isAntichain(4, succ, set) {
		t.Fatalf("result %v is not an antichain", set)
	}
}

func TestMaxWeightAntichainDiamond(t *testing.T) {
	// Diamond 0 -> {1,2} -> 3; 1 and 2 are incomparable.
	succ := [][]int{{1, 2}, {3}, {3}, {}}
	set, w := MaxWeightAntichain(4, succ, []int64{1, 4, 4, 7})
	if w != 8 {
		t.Fatalf("diamond antichain weight = %d (%v), want 8", w, set)
	}
	if !isAntichain(4, succ, set) {
		t.Fatalf("result %v is not an antichain", set)
	}
}

func TestMaxWeightAntichainNoCandidates(t *testing.T) {
	succ := [][]int{{1}, {}}
	set, w := MaxWeightAntichain(2, succ, []int64{0, 0})
	if len(set) != 0 || w != 0 {
		t.Fatalf("expected empty result, got %v weight %d", set, w)
	}
}

func TestMaxWeightAntichainEmptyGraph(t *testing.T) {
	set, w := MaxWeightAntichain(0, nil, nil)
	if len(set) != 0 || w != 0 {
		t.Fatalf("expected empty result, got %v weight %d", set, w)
	}
}

func TestMaxWeightAntichainIsolatedNodes(t *testing.T) {
	// No edges at all: every candidate is selected.
	succ := make([][]int, 5)
	weights := []int64{2, 0, 7, 1, 3}
	set, w := MaxWeightAntichain(5, succ, weights)
	if w != 13 || len(set) != 4 {
		t.Fatalf("isolated antichain = %v weight %d, want all weighted nodes, 13", set, w)
	}
}

func TestMaxWeightAntichainVsBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(11)
		succ := randDAG(rng, n, 0.25)
		weight := make([]int64, n)
		for i := range weight {
			if rng.Float64() < 0.7 {
				weight[i] = int64(rng.Intn(20))
			}
		}
		set, got := MaxWeightAntichain(n, succ, weight)
		want := AntichainBrute(n, succ, weight)
		if got != want {
			t.Fatalf("trial %d: flow antichain weight %d != brute %d (n=%d succ=%v w=%v)",
				trial, got, want, n, succ, weight)
		}
		if !isAntichain(n, succ, set) {
			t.Fatalf("trial %d: result %v is not an antichain", trial, set)
		}
		for _, v := range set {
			if weight[v] == 0 {
				t.Fatalf("trial %d: zero-weight node %d selected", trial, v)
			}
		}
	}
}

func TestMaxWeightAntichainDeepChainStress(t *testing.T) {
	// A long chain with heavy middle: exactly one node may be chosen.
	n := 2000
	succ := make([][]int, n)
	weight := make([]int64, n)
	for i := 0; i < n-1; i++ {
		succ[i] = []int{i + 1}
	}
	for i := range weight {
		weight[i] = int64(i % 97)
	}
	set, w := MaxWeightAntichain(n, succ, weight)
	if len(set) != 1 || w != 96 {
		t.Fatalf("deep chain: got %d nodes weight %d, want 1 node weight 96", len(set), w)
	}
}

func TestMinVertexCutSimple(t *testing.T) {
	// 0 -> 1 -> 2: cheapest separator is the lightest node.
	succ := [][]int{{1}, {2}, {}}
	cut, w, ok := MinVertexCut(3, succ,
		[]int64{5, 2, 9}, []bool{true, false, false}, []bool{false, false, true})
	if !ok || w != 2 || len(cut) != 1 || cut[0] != 1 {
		t.Fatalf("cut = %v weight %d ok=%v, want [1] weight 2", cut, w, ok)
	}
}

func TestMinVertexCutParallelPaths(t *testing.T) {
	// Entry 0 fans out to 1 and 2, both reach exit 3. Cutting 0 or 3 alone
	// works; compare against cutting both middles.
	succ := [][]int{{1, 2}, {3}, {3}, {}}
	cut, w, ok := MinVertexCut(4, succ,
		[]int64{10, 4, 3, 10}, []bool{true, false, false, false}, []bool{false, false, false, true})
	if !ok || w != 7 {
		t.Fatalf("cut = %v weight %d ok=%v, want middles weight 7", cut, w, ok)
	}
	if len(cut) != 2 || cut[0] != 1 || cut[1] != 2 {
		t.Fatalf("cut = %v, want [1 2]", cut)
	}
}

func TestMinVertexCutInfeasible(t *testing.T) {
	// Single path through an Inf node only.
	succ := [][]int{{1}, {2}, {}}
	_, _, ok := MinVertexCut(3, succ,
		[]int64{Inf, Inf, Inf}, []bool{true, false, false}, []bool{false, false, true})
	if ok {
		t.Fatal("expected infeasible cut through Inf-only path")
	}
}

func TestMinVertexCutManyUncuttablePaths(t *testing.T) {
	// Seventeen disjoint entry→exit nodes of Inf weight, beside one finite
	// path: the max-flow pushes Inf per uncuttable node, which would wrap an
	// int64 total to Inf-16 (and sixteen of them to a negative total) and
	// fake a finite, empty cut. No finite separator exists.
	for _, paths := range []int{1, 8, 16, 17, 40} {
		n := paths + 2
		succ := make([][]int, n)
		weight := make([]int64, n)
		isEntry := make([]bool, n)
		isExit := make([]bool, n)
		for v := 0; v < paths; v++ {
			weight[v], isEntry[v], isExit[v] = Inf, true, true
		}
		// A finite two-node path keeps the resizable weight positive.
		succ[paths] = []int{paths + 1}
		weight[paths], weight[paths+1] = 3, 5
		isEntry[paths], isExit[paths+1] = true, true
		cut, w, ok := MinVertexCut(n, succ, weight, isEntry, isExit)
		if ok {
			t.Fatalf("%d uncuttable paths: got finite cut %v of weight %d", paths, cut, w)
		}
	}
}

func TestMinVertexCutEntryIsExit(t *testing.T) {
	// A node that is both entry and exit must itself be cut.
	succ := [][]int{{}}
	cut, w, ok := MinVertexCut(1, succ, []int64{6}, []bool{true}, []bool{true})
	if !ok || w != 6 || len(cut) != 1 {
		t.Fatalf("cut = %v weight %d ok=%v, want [0] weight 6", cut, w, ok)
	}
}

func TestMinVertexCutVsBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(9)
		succ := randDAG(rng, n, 0.3)
		weight := make([]int64, n)
		isEntry := make([]bool, n)
		isExit := make([]bool, n)
		for i := range weight {
			weight[i] = int64(1 + rng.Intn(15))
		}
		// Entries among the first half, exits among the second half.
		isEntry[rng.Intn((n+1)/2)] = true
		isExit[n/2+rng.Intn(n-n/2)] = true
		cut, got, ok := MinVertexCut(n, succ, weight, isEntry, isExit)
		want := VertexCutBrute(n, succ, weight, isEntry, isExit)
		if !ok {
			if want < Inf {
				t.Fatalf("trial %d: reported infeasible but brute found %d", trial, want)
			}
			continue
		}
		if got != want {
			t.Fatalf("trial %d: cut weight %d != brute %d (succ=%v w=%v entry=%v exit=%v)",
				trial, got, want, succ, weight, isEntry, isExit)
		}
		// The reported cut must actually disconnect entries from exits.
		mask := 0
		for _, v := range cut {
			mask |= 1 << uint(v)
		}
		if !cutsAll(n, succ, isEntry, isExit, mask) {
			t.Fatalf("trial %d: cut %v does not separate", trial, cut)
		}
	}
}

func TestMaxFlowEKMatchesDinic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		build := func() *Network {
			g := NewNetwork(n)
			rng2 := rand.New(rand.NewSource(seed))
			for i := 0; i < 3*n; i++ {
				u, v := rng2.Intn(n), rng2.Intn(n)
				if u != v {
					g.AddArc(u, v, int64(1+rng2.Intn(30)))
				}
			}
			return g
		}
		ek := build().MaxFlowEK(0, n-1)
		di := build().MaxFlowDinic(0, n-1)
		return ek == di
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkFlowConservation(t *testing.T) {
	// After a max-flow run, net flow out of every interior node is zero.
	rng := rand.New(rand.NewSource(3))
	n := 12
	g := NewNetwork(n)
	type arcRec struct{ u, v, id int }
	var recs []arcRec
	for i := 0; i < 50; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		id := g.AddArc(u, v, int64(1+rng.Intn(20)))
		recs = append(recs, arcRec{u, v, id})
	}
	g.MaxFlowEK(0, n-1)
	net := make([]int64, n)
	for _, r := range recs {
		f := g.Flow(r.id)
		if f < 0 {
			t.Fatalf("negative flow %d on arc %d->%d", f, r.u, r.v)
		}
		net[r.u] -= f
		net[r.v] += f
	}
	for v := 1; v < n-1; v++ {
		if net[v] != 0 {
			t.Fatalf("flow conservation violated at node %d: %d", v, net[v])
		}
	}
}

func TestReachableFromIsolated(t *testing.T) {
	g := NewNetwork(3)
	g.AddArc(0, 1, 5)
	seen := g.ReachableFrom(0)
	if !seen[0] || !seen[1] || seen[2] {
		t.Fatalf("reachability = %v, want [true true false]", seen)
	}
}
