package graph

// MinVertexCut solves Gscale's resizing-target selection: given the critical
// path network (CPN) as a DAG, a positive weight per node (the paper's
// area-penalty over timing-gain ratio; use Inf for nodes that cannot be
// resized), a set of entry nodes and a set of exit nodes, find the
// minimum-weight set of nodes whose removal disconnects every entry→exit
// path. Because every critical path crosses the cut exactly once, resizing
// the cut simultaneously speeds up all critical paths while never touching
// two gates on the same path — the property the paper needs so that the
// timing gains computed before the cut remain valid.
//
// The reduction is the textbook node-splitting construction solved with
// Edmonds–Karp max-flow/min-cut, as the paper prescribes (citing Cormen,
// Leiserson & Rivest, chapter 27).
//
// Returns the cut (ascending node indices), its weight, and ok=false when no
// finite-weight cut exists (every path is blocked by an Inf node, or an entry
// is itself an exit with infinite weight).
func MinVertexCut(n int, succ [][]int, weight []int64, isEntry, isExit []bool) ([]int, int64, bool) {
	if n == 0 {
		return nil, 0, true
	}
	s, t := 2*n, 2*n+1
	g := NewNetwork(2*n + 2)
	// finite bounds the weight of every finite cut: no cut costs more than
	// all resizable nodes together.
	var finite int64
	for v := 0; v < n; v++ {
		w := weight[v]
		if w <= 0 {
			panic("graph: MinVertexCut requires positive weights (use Inf for fixed nodes)")
		}
		if w < Inf {
			finite = min(finite+w, Inf)
		}
		g.AddArc(2*v, 2*v+1, w)
	}
	for u := 0; u < n; u++ {
		for _, v := range succ[u] {
			g.AddArc(2*u+1, 2*v, Inf)
		}
	}
	for v := 0; v < n; v++ {
		if isEntry[v] {
			g.AddArc(s, 2*v, Inf)
		}
		if isExit[v] {
			g.AddArc(2*v+1, t, Inf)
		}
	}
	// A flow that reaches Inf, or exceeds every finite cut, means the minimum
	// cut runs through an Inf arc: no finite-weight separator exists.
	flow := g.MaxFlowEK(s, t)
	if flow >= Inf || flow > finite {
		return nil, flow, false
	}
	inS := g.ReachableFrom(s)
	var cut []int
	var total int64
	for v := 0; v < n; v++ {
		if inS[2*v] && !inS[2*v+1] {
			cut = append(cut, v)
			total += weight[v]
		}
	}
	if total != flow {
		panic("graph: separator weight does not match max-flow value")
	}
	return cut, total, true
}

// VertexCutBrute exhaustively finds the minimum-weight vertex cut for
// differential testing; n must be small.
func VertexCutBrute(n int, succ [][]int, weight []int64, isEntry, isExit []bool) int64 {
	if n > 20 {
		panic("graph: VertexCutBrute limited to 20 nodes")
	}
	best := Inf
	for mask := 0; mask < 1<<uint(n); mask++ {
		var w int64
		for v := 0; v < n; v++ {
			if mask>>uint(v)&1 == 1 {
				w += weight[v]
			}
		}
		if w >= best {
			continue
		}
		if cutsAll(n, succ, isEntry, isExit, mask) {
			best = w
		}
	}
	return best
}

// cutsAll reports whether removing the masked nodes disconnects every
// entry→exit path.
func cutsAll(n int, succ [][]int, isEntry, isExit []bool, mask int) bool {
	seen := make([]bool, n)
	var stack []int
	for v := 0; v < n; v++ {
		if isEntry[v] && mask>>uint(v)&1 == 0 {
			seen[v] = true
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if isExit[u] {
			return false
		}
		for _, v := range succ[u] {
			if !seen[v] && mask>>uint(v)&1 == 0 {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return true
}
