package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// closedLoop is the dispatch queue of a closed-loop run: a fixed set of
// workers takes the next item as soon as it finishes the last one. Items
// arrive a pass at a time from refill, which returns nil once the run is over;
// the next pass is queued as soon as nothing runnable is left, so the workers
// never idle between passes. Items with equal keys never run at once.
type closedLoop[T any] struct {
	refill func() []T
	key    func(T) int // nil: no constraint

	mu      sync.Mutex
	cond    *sync.Cond
	pending []queued[T]  // guarded by mu
	running map[int]bool // guarded by mu
	done    bool         // guarded by mu
}

type queued[T any] struct {
	item T
	enq  time.Time
}

// runClosedLoop runs do on every item refill produces, on the given number of
// workers, and returns when all have finished. wait is how long the item sat
// in the queue before a worker took it.
func runClosedLoop[T any](workers int, refill func() []T, key func(T) int, do func(item T, wait time.Duration)) {
	l := &closedLoop[T]{refill: refill, key: key, running: make(map[int]bool)}
	l.cond = sync.NewCond(&l.mu)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				item, wait, ok := l.take()
				if !ok {
					return
				}
				do(item, wait)
				l.release(item)
			}
		}()
	}
	wg.Wait()
}

func (l *closedLoop[T]) take() (T, time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for i, q := range l.pending {
			if l.key != nil && l.running[l.key(q.item)] {
				continue
			}
			l.pending = append(l.pending[:i], l.pending[i+1:]...)
			if l.key != nil {
				l.running[l.key(q.item)] = true
			}
			return q.item, time.Since(q.enq), true
		}
		if !l.done {
			// Nothing runnable is queued: queue the next pass.
			next := l.refill()
			if next == nil {
				l.done = true
			}
			now := time.Now()
			for _, it := range next {
				l.pending = append(l.pending, queued[T]{it, now})
			}
			continue
		}
		if len(l.pending) == 0 {
			var zero T
			return zero, 0, false
		}
		l.cond.Wait()
	}
}

func (l *closedLoop[T]) release(item T) {
	if l.key == nil {
		return
	}
	l.mu.Lock()
	delete(l.running, l.key(item))
	l.mu.Unlock()
	l.cond.Broadcast()
}

// cpuSelf is the user plus system CPU this process has used.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTick = 10 * time.Millisecond

// cpuOfPid is the user plus system CPU of another process, from
// /proc/<pid>/stat.
func cpuOfPid(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// rssOf is the resident set size in bytes of a process ("self" for this one).
func rssOf(pid string) int64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			fs := strings.Fields(rest)
			kb, _ := strconv.ParseInt(fs[0], 10, 64)
			return kb * 1024
		}
	}
	return 0
}

// rssSampler records the summed resident sets of some processes, sampled
// every rssPeriod until stop.
type rssSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []float64 // MB; written by the sampling goroutine, read after stop
}

const rssPeriod = 20 * time.Millisecond

// rssQuantile is the sample quantile reported as peak_rss_mb: the peak
// without spikes shorter than about 1% of the timed phase. On cold-suite the
// highest sample is such a spike, and its height depends on how the garbage
// collections of the two jobs in flight happen to line up: one seed read 37
// and 57 MB in two runs, while the 0.99 quantile stayed within 29-33 MB.
const rssQuantile = 0.99

func sampleRSS(pids ...string) *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		var sum int64
		for _, p := range pids {
			sum += rssOf(p)
		}
		s.samples = append(s.samples, float64(sum)/1e6)
	}
	sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return s
}

// stop ends sampling and returns the rssQuantile of the samples in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	<-s.done
	v, _ := percentile(s.samples, rssQuantile)
	return v
}
