// Package graph implements the two combinatorial engines the paper relies
// on:
//
//   - the maximum-weight independent set on a transitive graph (Kagaris &
//     Tragoudas [3]) that Dscale uses to pick a set of gates that can be
//     scaled simultaneously without two of them sharing a timing path, and
//   - the minimum-weight separator set, computed via the Edmonds–Karp
//     max-flow/min-cut algorithm of Cormen et al. [2], that Gscale uses to
//     pick the cheapest set of gates whose resizing speeds up every critical
//     path into the time-critical boundary.
//
// Both are built on a shared residual-network flow core. Capacities are
// int64; callers scale float weights before building networks.
package graph

import "math"

// Inf is the capacity used for uncuttable arcs. It is large enough to
// dominate any realistic weight sum yet leaves headroom against overflow.
const Inf int64 = math.MaxInt64 / 8

// arc is half of a residual arc pair. arcs[i^1] is the reverse arc of
// arcs[i].
type arc struct {
	to  int
	cap int64 // remaining residual capacity
}

// Network is a flow network with residual bookkeeping. The zero value is not
// usable; create with NewNetwork.
type Network struct {
	n    int
	arcs []arc
	head [][]int32 // per node, indices into arcs
	// scratch reused across BFS runs
	level []int32
	queue []int32
	iter  []int32
}

// NewNetwork creates a network with n nodes and no arcs.
func NewNetwork(n int) *Network {
	return &Network{n: n, head: make([][]int32, n)}
}

// NumNodes returns the node count.
func (g *Network) NumNodes() int { return g.n }

// AddArc adds a directed arc u→v with the given capacity and returns its arc
// id, usable with Flow and ResidualCap. A reverse arc of capacity 0 is added
// automatically.
func (g *Network) AddArc(u, v int, capacity int64) int {
	id := len(g.arcs)
	g.arcs = append(g.arcs, arc{to: v, cap: capacity}, arc{to: u, cap: 0})
	g.head[u] = append(g.head[u], int32(id))
	g.head[v] = append(g.head[v], int32(id+1))
	return id
}

// ResidualCap returns the remaining capacity of arc id.
func (g *Network) ResidualCap(id int) int64 { return g.arcs[id].cap }

// Flow returns the flow currently pushed through arc id, assuming the arc was
// created with AddArc (flow equals the reverse arc's residual capacity).
func (g *Network) Flow(id int) int64 { return g.arcs[id^1].cap }

// SetCap overwrites the residual capacity of arc id. It is used by the
// min-flow construction to seed a feasible flow.
func (g *Network) SetCap(id int, c int64) { g.arcs[id].cap = c }

// push augments flow along arc id by f (decreasing its residual capacity and
// increasing the reverse arc's).
func (g *Network) push(id int, f int64) {
	g.arcs[id].cap -= f
	g.arcs[id^1].cap += f
}

// MaxFlowEK computes the maximum s→t flow with the Edmonds–Karp algorithm
// (BFS augmenting paths), the variant the paper cites for Gscale's separator
// computation. Inf is unbounded capacity: a flow that reaches it is reported
// as exactly Inf, so many uncuttable paths cannot wrap the int64 total.
func (g *Network) MaxFlowEK(s, t int) int64 {
	if s == t {
		return 0
	}
	parentArc := make([]int32, g.n)
	var total int64
	for {
		for i := range parentArc {
			parentArc[i] = -1
		}
		parentArc[s] = -2
		q := []int32{int32(s)}
		found := false
	bfs:
		for len(q) > 0 {
			u := q[0]
			q = q[1:]
			for _, id := range g.head[u] {
				a := g.arcs[id]
				if a.cap <= 0 || parentArc[a.to] != -1 {
					continue
				}
				parentArc[a.to] = id
				if a.to == t {
					found = true
					break bfs
				}
				q = append(q, int32(a.to))
			}
		}
		if !found {
			return total
		}
		// Find bottleneck and augment.
		bottleneck := Inf
		for v := t; v != s; {
			id := parentArc[v]
			if g.arcs[id].cap < bottleneck {
				bottleneck = g.arcs[id].cap
			}
			v = g.arcs[id^1].to
		}
		for v := t; v != s; {
			id := parentArc[v]
			g.push(int(id), bottleneck)
			v = g.arcs[id^1].to
		}
		total += bottleneck
		if total >= Inf {
			return Inf
		}
	}
}

// MaxFlowDinic computes the maximum s→t flow with Dinic's algorithm. It is
// used for the larger min-flow networks behind the independent-set selection,
// where Edmonds–Karp's O(VE²) bound would be uncomfortable.
func (g *Network) MaxFlowDinic(s, t int) int64 {
	if s == t {
		return 0
	}
	if g.level == nil {
		g.level = make([]int32, g.n)
		g.iter = make([]int32, g.n)
	}
	var total int64
	for g.bfsLevel(s, t) {
		for i := range g.iter {
			g.iter[i] = 0
		}
		for {
			f := g.dfsBlock(s, t, Inf)
			if f == 0 {
				break
			}
			total += f
		}
	}
	return total
}

func (g *Network) bfsLevel(s, t int) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	g.level[s] = 0
	g.queue = g.queue[:0]
	g.queue = append(g.queue, int32(s))
	for qi := 0; qi < len(g.queue); qi++ {
		u := g.queue[qi]
		for _, id := range g.head[u] {
			a := g.arcs[id]
			if a.cap > 0 && g.level[a.to] < 0 {
				g.level[a.to] = g.level[u] + 1
				g.queue = append(g.queue, int32(a.to))
			}
		}
	}
	return g.level[t] >= 0
}

func (g *Network) dfsBlock(u, t int, limit int64) int64 {
	if u == t {
		return limit
	}
	for ; g.iter[u] < int32(len(g.head[u])); g.iter[u]++ {
		id := g.head[u][g.iter[u]]
		a := g.arcs[id]
		if a.cap <= 0 || g.level[a.to] != g.level[u]+1 {
			continue
		}
		f := limit
		if a.cap < f {
			f = a.cap
		}
		if got := g.dfsBlock(a.to, t, f); got > 0 {
			g.push(int(id), got)
			return got
		}
	}
	return 0
}

// ReachableFrom returns the set of nodes reachable from src through arcs with
// positive residual capacity — the source side of a minimum cut after a
// max-flow run.
func (g *Network) ReachableFrom(src int) []bool {
	seen := make([]bool, g.n)
	seen[src] = true
	stack := []int{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.head[u] {
			a := g.arcs[id]
			if a.cap > 0 && !seen[a.to] {
				seen[a.to] = true
				stack = append(stack, a.to)
			}
		}
	}
	return seen
}
