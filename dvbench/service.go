package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dualvdd"
	"dualvdd/client"
)

const (
	// serviceSetupReps is how often a service run starts the fleet; it
	// reports the median start-up (tens of milliseconds each).
	serviceSetupReps = 9
	// readyTimeout bounds one start-up.
	readyTimeout = 30 * time.Second
	// stopTimeout is how long a child may drain after SIGTERM before it is
	// killed.
	stopTimeout = 15 * time.Second
	// requestsPerSecond sizes a service run: it sends this many requests per
	// second of -seconds, which on the two-core machine the benchmark was
	// sized on takes about one and a half times -seconds. A fixed count
	// keeps the hit/miss mix a function of the seed alone; a time-bounded
	// run would turn a faster run into a more cache-friendly one.
	requestsPerSecond = 750
)

// proc is a child dualvdd process serving HTTP.
type proc struct {
	cmd    *exec.Cmd
	url    string
	copied chan struct{} // closed once stdout is drained
}

var servingRe = regexp.MustCompile(`serving on (http://\S+)`)

// startProc runs the dualvdd CLI with args and waits for it to print the
// address it serves on. The child's standard error goes to log.
func startProc(log io.Writer, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = log
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, copied: make(chan struct{})}
	urlc := make(chan string, 1)
	go func() {
		defer close(p.copied)
		br := bufio.NewReader(out)
		line, _ := br.ReadString('\n')
		if m := servingRe.FindStringSubmatch(line); m != nil {
			urlc <- m[1]
		}
		close(urlc)
		_, _ = io.Copy(io.Discard, br)
	}()
	select {
	case u, ok := <-urlc:
		if ok {
			p.url = u
			return p, nil
		}
	case <-time.After(readyTimeout):
	}
	p.stop()
	return nil, fmt.Errorf("%s %v did not report its address", bin, args)
}

func (p *proc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// stop sends SIGTERM, kills the process if it has not drained in time, and
// waits for it to end.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-p.copied
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(stopTimeout):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

// service is a dualvdd fleet coordinator on a fresh disk store in front of
// two single-worker dualvdd serve processes.
type service struct {
	workers []*proc
	fleet   *proc
	dir     string
	log     *os.File
	// transport carries every request the benchmark makes to the service;
	// closing its idle connections leaves no client goroutine running.
	transport *http.Transport
}

// client returns a client of one of the service's processes.
func (s *service) client(url string) *client.Client {
	c, err := client.New(url, client.WithHTTPClient(&http.Client{Transport: s.transport}))
	if err != nil {
		panic(err) // the URL came from the process itself
	}
	return c
}

// startService starts the processes with their state and logs under dir and
// waits until the coordinator reports both workers live.
func startService(bin, dir string) (*service, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(dir, "service.log"))
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, log: log, transport: http.DefaultTransport.(*http.Transport).Clone()}
	// An unbounded CAS (-cache-entries 0) holds the whole grid, so a miss is
	// always the first request for its key: the hit/miss mix follows the
	// seeded stream instead of LRU eviction timing between the two clients.
	args := []string{"fleet", "-listen", "127.0.0.1:0", "-store", filepath.Join(dir, "store"), "-cache-entries", "0"}
	for i := 0; i < 2; i++ {
		w, err := startProc(log, bin, "serve", "-listen", "127.0.0.1:0", "-workers", "1")
		if err != nil {
			s.stop()
			return nil, err
		}
		s.workers = append(s.workers, w)
		args = append(args, "-worker", w.url)
	}
	f, err := startProc(log, bin, args...)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.fleet = f
	c := s.client(f.url)
	ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
	defer cancel()
	for {
		if c.Health(ctx) == nil {
			if m, err := c.Metrics(ctx); err == nil && m.WorkersLive == len(s.workers) {
				return s, nil
			}
		}
		select {
		case <-ctx.Done():
			s.stop()
			return nil, errors.New("fleet did not become ready")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop stops the coordinator, then the workers, and removes the store and
// the logs.
func (s *service) stop() {
	if s.fleet != nil {
		s.fleet.stop()
	}
	for _, w := range s.workers {
		w.stop()
	}
	s.transport.CloseIdleConnections()
	s.log.Close()
	_ = os.RemoveAll(s.dir)
}

func (s *service) procs() []*proc { return append([]*proc{s.fleet}, s.workers...) }

func (s *service) pids() []string {
	var ids []string
	for _, p := range s.procs() {
		ids = append(ids, p.pid())
	}
	return ids
}

// cpu is the summed user plus system CPU of the service's processes.
func (s *service) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, p := range s.procs() {
		d, err := cpuOfPid(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// metrics reads /metricsz of the coordinator and of each worker.
func (s *service) metrics() (fleet dualvdd.Metrics, workers dualvdd.Metrics, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
	defer cancel()
	defer s.transport.CloseIdleConnections()
	for i, p := range s.procs() {
		m, err := s.client(p.url).Metrics(ctx)
		if err != nil {
			return fleet, workers, err
		}
		if i == 0 {
			fleet = m
			continue
		}
		workers.JobsDone += m.JobsDone
		workers.STAEvals += m.STAEvals
		workers.SimNs += m.SimNs
	}
	return fleet, workers, nil
}

// request is one completed service request.
type request struct {
	key  int
	lat  time.Duration
	err  error
	text string
}

// serviceRun holds what a service run shares between its phases.
type serviceRun struct {
	e     env
	tailP float64
	texts []string
	keys  []serviceKey
	jobs  []dualvdd.Job
	svc   *service
}

// send submits one job and waits for its result through the client, timing
// both calls as spans when tr is set.
func (r *serviceRun) send(c *client.Client, tr *tracer, op, key int) request {
	req := request{key: key}
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	t0 := time.Now()
	var id dualvdd.JobID
	err := tr.around("client.submit", op, root, func() (err error) {
		id, err = c.Submit(ctx, r.jobs[key])
		return err
	})
	var st *dualvdd.JobStatus
	if err == nil {
		err = tr.around("client.wait", op, root, func() (err error) {
			st, err = c.Result(ctx, id)
			return err
		})
	}
	req.lat = time.Since(t0)
	switch {
	case err != nil:
		req.err = err
	case st.State != dualvdd.JobDone:
		req.err = fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
	case st.Design == nil:
		req.err = fmt.Errorf("job %s carries no design", id)
	default:
		d := designInfo{Gates: st.Design.Gates, MinDelay: st.Design.MinDelay, Tspec: st.Design.Tspec, OrgPower: st.Design.OrgPower}
		req.text = resultText(d, outcomesOf(st.Results))
	}
	return req
}

// drive sends the first n requests of the seeded stream through closed-loop
// clients.
func (r *serviceRun) drive(clients, n int, tr *tracer) []request {
	draws := newZipfDraws(r.e.seed, len(r.keys))
	var mu sync.Mutex
	var reqs []request
	sent := 0
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		c := r.svc.client(r.svc.fleet.url)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if sent == n {
					mu.Unlock()
					return
				}
				key, op := draws.next(), sent
				sent++
				mu.Unlock()
				req := r.send(c, tr, op, key)
				mu.Lock()
				reqs = append(reqs, req)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.svc.transport.CloseIdleConnections()
	return reqs
}

// requests is the number of requests a run sends: requestsPerSecond per
// second of -seconds, and never fewer than the tail percentile needs.
func (r *serviceRun) requests() int {
	return max(requestsPerSecond*int(r.e.seconds/time.Second), minSamples(r.tailP))
}

func runService(wl *workload, e env) *report {
	rep := &report{correct: true}
	r := &serviceRun{e: e, tailP: wl.tailP, keys: serviceGrid()}
	var setup []float64
	reps := serviceSetupReps
	if e.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if r.texts, err = generate(serviceCircuits); err == nil {
			dir := filepath.Join(e.out, fmt.Sprintf("service-%d-%d", os.Getpid(), i))
			r.svc, err = startService(e.dualvdd, dir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvbench:", err)
			return nil
		}
		setup = append(setup, time.Since(t0).Seconds())
		if i < reps-1 {
			r.svc.stop()
		}
	}
	defer r.svc.stop()
	for _, k := range r.keys {
		r.jobs = append(r.jobs, dualvdd.BLIFJob(r.texts[k.circuit],
			dualvdd.WithSeed(e.seed), dualvdd.WithVoltages(5.0, k.vlow), dualvdd.WithAlgorithms(algoSets[k.set]...)))
	}
	if e.trace {
		return r.traced(rep)
	}

	start := time.Now()
	cpu0, err := r.svc.cpu()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvbench:", err)
		return nil
	}
	rss := sampleRSS(r.svc.pids()...)
	reqs := r.drive(workers, r.requests(), nil)
	wall := time.Since(start)
	cpu1, err := r.svc.cpu()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvbench:", err)
		return nil
	}
	t := timed{setup: setup, wall: wall, cpu: cpu1 - cpu0, rssMB: rss.stop()}
	bad := r.check(reqs, rep)
	for _, q := range reqs {
		t.attempted++
		if q.err != nil || bad[q.key] {
			t.failed++
			continue
		}
		t.latencies = append(t.latencies, float64(q.lat.Microseconds())/1e3)
	}
	wl.endToEnd(t, rep)
	return rep
}

// check holds every response to the first response for its key and each
// distinct key to the in-process Flow result, prints the digest, and returns
// the keys that failed a check.
func (r *serviceRun) check(reqs []request, rep *report) map[int]bool {
	bad := make(map[int]bool)
	first := make(map[int]string)
	for _, q := range reqs {
		if q.err != nil {
			fmt.Fprintf(os.Stderr, "dvbench: request for key %d failed: %v\n", q.key, q.err)
			continue
		}
		if f, ok := first[q.key]; !ok {
			first[q.key] = q.text
		} else if f != q.text {
			rep.problem("key %d: responses differ", q.key)
			bad[q.key] = true
		}
	}
	ref := r.reference(first)
	lines := make([]string, 0, len(first))
	for k, text := range first {
		if ref[k] != text {
			rep.problem("key %d (%s at %g V, %v): response differs from the in-process result",
				k, serviceCircuits[r.keys[k].circuit], r.keys[k].vlow, algoSets[r.keys[k].set])
			bad[k] = true
		}
		lines = append(lines, fmt.Sprintf("%d\n%s", k, text))
	}
	printDigest("service", r.e.seed, lines)
	return bad
}

// reference computes the in-process result of each key with Flow.LoadBLIF
// and Flow.Run, preparing each circuit and rail pair once for all its
// algorithm sets.
func (r *serviceRun) reference(keys map[int]string) map[int]string {
	groups := make(map[serviceKey][]int)
	for k := range keys {
		g := r.keys[k]
		g.set = 0
		groups[g] = append(groups[g], k)
	}
	var todo []serviceKey
	for g := range groups {
		todo = append(todo, g)
	}
	var mu sync.Mutex
	out := make(map[int]string)
	runClosedLoop(workers, once(todo), nil, func(g serviceKey, _ time.Duration) {
		texts := make(map[int]string)
		err := protect(func() error {
			opts := []dualvdd.Option{dualvdd.WithSeed(r.e.seed), dualvdd.WithVoltages(5.0, g.vlow)}
			d, err := dualvdd.New(opts...).LoadBLIF(context.Background(), strings.NewReader(r.texts[g.circuit]))
			if err != nil {
				return err
			}
			for _, k := range groups[g] {
				f := dualvdd.New(append(opts, dualvdd.WithAlgorithms(algoSets[r.keys[k].set]...))...)
				res, err := f.Run(context.Background(), d)
				if err != nil {
					return err
				}
				texts[k] = resultText(designOf(d), outcomesOf(res))
			}
			return nil
		})
		mu.Lock()
		defer mu.Unlock()
		for _, k := range groups[g] {
			out[k] = texts[k]
			if err != nil {
				out[k] = "error: " + err.Error()
			}
		}
	})
	return out
}

// traced is the traced service run: one client sends one request at a time
// with spans around the client calls, and the coordinator's and workers'
// counters are read before and after; then the distinct keys are composed
// from the layer calls, traced and untraced, to price the layers a miss
// runs through.
func (r *serviceRun) traced(rep *report) *report {
	m := make(map[string]float64)
	f0, w0, err := r.svc.metrics()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvbench:", err)
		return nil
	}
	tp := newTracedPair()
	reqs := r.drive(1, r.requests(), tp.tr)
	f1, w1, err := r.svc.metrics()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvbench:", err)
		return nil
	}
	bad := r.check(reqs, rep)
	m["fleet.cache_hits"] = float64(f1.CacheHits - f0.CacheHits)
	m["fleet.cache_misses"] = float64(f1.CacheMisses - f0.CacheMisses)
	if n := m["fleet.cache_hits"] + m["fleet.cache_misses"]; n > 0 {
		m["fleet.cache_hit_ratio"] = m["fleet.cache_hits"] / n
	}
	m["fleet.submit_dedups"] = float64(f1.SubmitDedups - f0.SubmitDedups)
	m["fleet.redispatches"] = float64(f1.Redispatches - f0.Redispatches)
	m["worker.jobs_done"] = float64(w1.JobsDone - w0.JobsDone)
	m["worker.sta_evals"] = float64(w1.STAEvals - w0.STAEvals)
	m["worker.sim_ms"] = float64(w1.SimNs-w0.SimNs) / 1e6
	m["store.cas_entries"] = float64(f1.CacheEntries)
	m["store.cas_bytes"] = float64(f1.CacheBytes)
	m["store.errors"] = float64(f1.StoreErrors)

	// The layers behind a miss, composed in process for each distinct key.
	ref := make(map[int]string)
	for _, q := range reqs {
		if q.err == nil {
			ref[q.key] = q.text
		}
	}
	var distinct []int
	for k := range ref {
		distinct = append(distinct, k)
	}
	sort.Ints(distinct)
	cfgs := make([]dualvdd.Config, len(r.keys))
	for i, k := range distinct {
		op := len(reqs) + i
		key := r.keys[k]
		cfgs[k] = dualvdd.New(dualvdd.WithSeed(r.e.seed), dualvdd.WithVoltages(5.0, key.vlow)).Config()
		tp.do(op, func(l *layers) string {
			text, _, err := composeJob(l, r.texts[key.circuit], cfgs[k], algoSets[key.set])
			if err != nil || text != ref[k] {
				rep.problem("key %d: composed pipeline differs from the response (%v)", k, err)
				bad[k] = true
			}
			return text
		})
	}
	tp.check(rep, "service")
	tp.finish(r.e, "service", m, tp.cntA, max(len(distinct), 1))
	rep.metrics = m
	rep.attempted = len(reqs)
	for _, q := range reqs {
		if q.err != nil || bad[q.key] {
			rep.failed++
		}
	}
	return rep
}
