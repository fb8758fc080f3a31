package main

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"dualvdd/internal/mcnc"
)

func TestPermutationIsSeeded(t *testing.T) {
	a := permutation(7, "cold-order/0", 39)
	if !reflect.DeepEqual(a, permutation(7, "cold-order/0", 39)) {
		t.Fatal("one seed gave two orders")
	}
	if reflect.DeepEqual(a, permutation(8, "cold-order/0", 39)) {
		t.Fatal("two seeds gave one order")
	}
	if reflect.DeepEqual(a, permutation(7, "cold-order/1", 39)) {
		t.Fatal("two passes of one seed gave one order")
	}
	s := append([]int(nil), a...)
	sort.Ints(s)
	for i, v := range s {
		if v != i {
			t.Fatalf("not a permutation of 0..38: %v", a)
		}
	}
}

func TestWarmGrid(t *testing.T) {
	rails := warmRails()
	if got := len(mcnc.Names()) * len(rails); got != 897 {
		t.Fatalf("warm grid has %d points, want 897 (39 circuits × 23 rail points)", got)
	}
	for i := 0; i < 17; i++ {
		want := []float64{5.0, float64(31+i) / 10}
		if !reflect.DeepEqual(rails[i], want) {
			t.Errorf("point %d = %v, want %v", i, rails[i], want)
		}
	}
	if rails[0][1] != 3.1 || rails[16][1] != 4.7 || rails[6][1] != 3.7 {
		t.Errorf("two-rail VDDL axis %v .. %v does not hit 3.1, 3.7 and 4.7 exactly", rails[0], rails[16])
	}
	multi := 0
	for _, r := range rails[17:] {
		multi++
		for j := 1; j < len(r); j++ {
			if r[j] >= r[j-1] {
				t.Errorf("rail table %v is not strictly descending", r)
			}
		}
	}
	if multi != 6 || len(rails[21]) != 4 || len(rails[22]) != 4 || len(rails[17]) != 3 {
		t.Errorf("multi-rail tables wrong: %v", rails[17:])
	}
}

func TestServiceGrid(t *testing.T) {
	keys := serviceGrid()
	if len(keys) != 17*9*4 {
		t.Fatalf("service grid has %d keys, want %d", len(keys), 17*9*4)
	}
	vlows := make(map[float64]bool)
	seen := make(map[serviceKey]bool)
	for _, k := range keys {
		vlows[k.vlow] = true
		if seen[k] {
			t.Fatalf("duplicate key %+v", k)
		}
		seen[k] = true
	}
	for _, v := range []float64{3.1, 3.3, 3.5, 3.7, 3.9, 4.1, 4.3, 4.5, 4.7} {
		if !vlows[v] {
			t.Errorf("VDDL %g missing from the service grid", v)
		}
	}
	for _, c := range serviceCircuits {
		if _, err := mcnc.Generate(c); err != nil {
			t.Errorf("service circuit %s: %v", c, err)
		}
	}
}

func TestZipfDrawsAreSeededAndSkewed(t *testing.T) {
	const n, draws = 612, 5000
	a, b := newZipfDraws(3, n), newZipfDraws(3, n)
	c := newZipfDraws(4, n)
	if !reflect.DeepEqual(a.perm, c.perm) {
		t.Fatal("the key popularity order depends on the seed")
	}
	counts := make(map[int]int)
	same := true
	for i := 0; i < draws; i++ {
		x := a.next()
		if x != b.next() {
			t.Fatal("one seed gave two request streams")
		}
		if x != c.next() {
			same = false
		}
		if x < 0 || x >= n {
			t.Fatalf("draw %d out of range", x)
		}
		counts[x]++
	}
	if same {
		t.Fatal("two seeds gave one request stream")
	}
	top := 0
	for _, k := range counts {
		top = max(top, k)
	}
	if top < draws/10 || len(counts) < 50 {
		t.Errorf("stream not Zipf-shaped: hottest key %d of %d draws, %d distinct keys", top, draws, len(counts))
	}
}

func TestTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 0.99); v != 99 || beyond != 1 {
		t.Errorf("p99 of 1..100 = %v (%d beyond), want 99 (1 beyond)", v, beyond)
	}
	if v, beyond := percentile(xs, 0.5); v != 50 || beyond != 50 {
		t.Errorf("p50 of 1..100 = %v (%d beyond), want 50 (50 beyond)", v, beyond)
	}
	for _, p := range []float64{0.87, 0.91, 0.99, 0.997, 0.998} {
		n := minSamples(p)
		if _, beyond := percentile(make([]float64, n), p); beyond < minBeyond {
			t.Errorf("p%g over %d samples leaves %d beyond", p*100, n, beyond)
		}
		if _, beyond := percentile(make([]float64, n-1), p); beyond >= minBeyond {
			t.Errorf("minSamples(%g) = %d is not the smallest count", p, n)
		}
	}
	// The timed phases' minimum sample counts meet each workload's tail, and
	// the tail is the highest percentile that does (to a whole percent below
	// p99, to a tenth above); service is sized at -seconds 12.
	for _, w := range workloads {
		var least int
		switch w.name {
		case "cold-suite":
			least = minColdPasses * len(mcnc.Names())
		case "warm-sweep":
			least = minWarmSweeps * (len(mcnc.Names())*len(warmRails()) - 2) // two points fail a sweep
		case "service":
			least = (&serviceRun{e: env{seconds: 12 * time.Second}, tailP: w.tailP}).requests()
			if short := (&serviceRun{e: env{seconds: time.Second}, tailP: w.tailP}).requests(); short < minSamples(w.tailP) {
				t.Errorf("service at -seconds 1 sends %d requests, p%g needs %d", short, w.tailP*100, minSamples(w.tailP))
			}
		}
		if least < minSamples(w.tailP) {
			t.Errorf("%s collects at least %d samples, p%g needs %d", w.name, least, w.tailP*100, minSamples(w.tailP))
		}
		step := 0.01
		if w.tailP >= 0.99 {
			step = 0.001
		}
		if least >= minSamples(w.tailP+step) {
			t.Errorf("%s: p%g would still leave %d samples beyond", w.name, (w.tailP+step)*100, minBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3,1,2 = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median of 4,1,2,3 = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is a number")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps its sibling
		{ID: 3, Parent: 0, Start: 90, End: 120}, // sticks out of the parent
		{ID: 4, Parent: 2, Start: 25, End: 45},  // grandchild
		{ID: 5, Parent: -1, Start: 200, End: 210},
	}
	setSelfTimes(spans)
	want := []int64{
		100 - 40 - 10, // children cover [10,50] and [90,100]
		20,
		30 - 20,
		30,
		20,
		10,
	}
	for i, s := range spans {
		if s.Self != want[i] {
			t.Errorf("span %d self = %d, want %d", i, s.Self, want[i])
		}
	}
	self := selfMs([]span{{Name: "a", Self: 2e6}, {Name: "a", Self: 1e6}, {Name: "b", Self: 5e5}})
	if self["a"] != 3 || self["b"] != 0.5 {
		t.Errorf("selfMs = %v", self)
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 7, -1)
	_ = tr.around("child", 7, root, func() error { time.Sleep(time.Millisecond); return nil })
	tr.end(root)
	spans := tr.finish()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 7 ||
		spans[0].Self != (spans[0].End-spans[0].Start)-(spans[1].End-spans[1].Start) {
		t.Fatalf("spans = %+v", spans)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, -1); id != -1 {
		t.Fatal("nil tracer recorded a span")
	}
}

func TestClosedLoopKeepsKeysApart(t *testing.T) {
	passes := 0
	refill := func() []int {
		if passes == 3 {
			return nil
		}
		passes++
		return []int{0, 1, 2, 3, 4, 5}
	}
	var mu sync.Mutex
	running := make(map[int]bool)
	done := 0
	runClosedLoop(3, refill, func(x int) int { return x % 2 }, func(x int, _ time.Duration) {
		mu.Lock()
		if running[x%2] {
			t.Errorf("two items of key %d ran at once", x%2)
		}
		running[x%2] = true
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		running[x%2] = false
		done++
		mu.Unlock()
	})
	if done != 18 {
		t.Fatalf("ran %d items, want 18", done)
	}
}
