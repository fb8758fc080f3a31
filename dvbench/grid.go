package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"dualvdd"
	"dualvdd/internal/blif"
	"dualvdd/internal/mcnc"
)

// rng derives a deterministic random stream from the run seed and a label, so
// each seeded draw (an order, a sample, a key sequence) is independent of the
// others and of how many values another stream consumed.
func rng(seed uint64, label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// permutation is a seeded permutation of 0..n-1.
func permutation(seed uint64, label string, n int) []int {
	return rng(seed, label).Perm(n)
}

// warmRails is the rail axis of one warm-sweep chain: 17 two-rail points with
// VDDL from 3.1 to 4.7 V in 0.1 V steps, then four three-rail and two
// four-rail tables, all under a 5.0 V high rail.
func warmRails() [][]float64 {
	var pts [][]float64
	for k := 31; k <= 47; k++ {
		pts = append(pts, []float64{5.0, float64(k) / 10})
	}
	return append(pts,
		[]float64{5.0, 4.5, 4.0},
		[]float64{5.0, 4.3, 3.6},
		[]float64{5.0, 4.3, 3.3},
		[]float64{5.0, 4.0, 3.3},
		[]float64{5.0, 4.5, 4.0, 3.5},
		[]float64{5.0, 4.3, 3.8, 3.3},
	)
}

// serviceCircuits are the MCNC stand-ins whose default mapping has at most
// 160 live gates, which keeps every service miss short.
var serviceCircuits = []string{
	"C432", "C880", "alu2", "b9", "f51m", "i1", "i2", "i3", "lal",
	"mux", "my_adder", "pcle", "pm1", "sct", "term1", "x2", "z4ml",
}

// algoSets are the algorithm sets of the service grid.
var algoSets = [][]dualvdd.Algorithm{
	{dualvdd.AlgoCVS},
	{dualvdd.AlgoDscale},
	{dualvdd.AlgoGscale},
	dualvdd.Algorithms(),
}

// serviceKey is one point of the service grid.
type serviceKey struct {
	circuit int     // index into serviceCircuits
	vlow    float64 // low rail; the high rail is 5.0 V
	set     int     // index into algoSets
}

// serviceGrid expands circuit ▸ VDDL (3.1 to 4.7 V in 0.2 V steps) ▸
// algorithm set.
func serviceGrid() []serviceKey {
	var keys []serviceKey
	for c := range serviceCircuits {
		for k := 31; k <= 47; k += 2 {
			for s := range algoSets {
				keys = append(keys, serviceKey{circuit: c, vlow: float64(k) / 10, set: s})
			}
		}
	}
	return keys
}

// zipfS is the skew of the service key popularity.
const zipfS = 1.1

// zipfDraws is the seeded service request stream: ranks drawn from a Zipf
// distribution, mapped to grid keys through one fixed permutation, so every
// seed sees the same keys hot and cold and draws its own stream over them.
type zipfDraws struct {
	z    *rand.Zipf
	perm []int
}

func newZipfDraws(seed uint64, n int) *zipfDraws {
	return &zipfDraws{
		z:    rand.NewZipf(rng(seed, "service-zipf"), zipfS, 1, uint64(n-1)),
		perm: permutation(0, "service-rank", n),
	}
}

// next returns the grid index of the next request.
func (d *zipfDraws) next() int { return d.perm[d.z.Uint64()] }

// generate writes the named MCNC stand-ins as technology-independent BLIF,
// the only form in which the program receives its inputs.
func generate(names []string) ([]string, error) {
	texts := make([]string, len(names))
	for i, n := range names {
		net, err := mcnc.Generate(n)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		if err := blif.WriteNetwork(&b, net); err != nil {
			return nil, fmt.Errorf("writing %s: %w", n, err)
		}
		texts[i] = b.String()
	}
	return texts, nil
}
