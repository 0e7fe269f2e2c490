package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// op names a public core call the traced run puts a span around.
type op int

const (
	opBegin op = iota
	opLock
	opRead
	opWrite
	opEnd
	numOps
)

// stamp is a span's start on both clocks.
type stamp struct{ host, sim time.Time }

// client is one closed-loop simulated client's tally over a round.
type client struct {
	clk   vtime.Clock
	spans bool

	lats      []time.Duration // simulated BeginTrans-to-EndTrans of commits
	attempted int
	failed    int
	lastErr   error
	// violation is a correctness failure the client saw in what it
	// read; it fails the run.
	violation error

	// Span totals per call, kept only when spans is set.
	calls   [numOps]int
	hostDur [numOps]time.Duration
	simDur  [numOps]time.Duration
}

func (cl *client) start() stamp {
	if !cl.spans {
		return stamp{}
	}
	return stamp{time.Now(), cl.clk.Now()}
}

func (cl *client) done(o op, s stamp) {
	if !cl.spans {
		return
	}
	cl.hostDur[o] += time.Since(s.host)
	cl.simDur[o] += cl.clk.Now().Sub(s.sim)
	cl.calls[o]++
}

// txn runs one transaction: body issues its locks and accesses, and any
// error aborts it.  It reports whether the transaction committed.
func (cl *client) txn(p *core.Process, body func() error) bool {
	cl.attempted++
	t0 := cl.clk.Now()
	s := cl.start()
	_, err := p.BeginTrans()
	cl.done(opBegin, s)
	if err == nil {
		if err = body(); err != nil {
			if aerr := p.AbortTrans(); aerr != nil {
				err = fmt.Errorf("%v; abort: %w", err, aerr)
			}
		} else {
			s = cl.start()
			err = p.EndTrans()
			cl.done(opEnd, s)
		}
	}
	if err != nil {
		cl.failed++
		cl.lastErr = err
		return false
	}
	cl.lats = append(cl.lats, cl.clk.Now().Sub(t0))
	return true
}

func (cl *client) lock(f *core.File, off, n int64, mode core.Mode) error {
	s := cl.start()
	err := f.LockRange(off, n, mode)
	cl.done(opLock, s)
	return err
}

func (cl *client) read(f *core.File, buf []byte, off int64) error {
	s := cl.start()
	n, err := f.ReadAt(buf, off)
	cl.done(opRead, s)
	if err == nil && n != len(buf) {
		err = fmt.Errorf("short read at %d: %d of %d bytes", off, n, len(buf))
	}
	return err
}

func (cl *client) write(f *core.File, buf []byte, off int64) error {
	s := cl.start()
	_, err := f.WriteAt(buf, off)
	cl.done(opWrite, s)
	return err
}

// roundOpts selects what a round records besides the end-to-end
// figures.
type roundOpts struct {
	// serial runs the clients one after another instead of together,
	// so a span holds only work its own call caused.
	serial bool
	// spans times every core call.
	spans bool
	// collector attaches a trace.Collector to the cluster.
	collector bool
	// profile turns on the telemetry commit-path profiler and
	// attributes the window's heap allocations by module; it needs
	// runtime.MemProfileRate = 1.
	profile bool
	// tweak, when set, edits the cluster configuration (the tests'
	// sensitivity checks).
	tweak func(*cluster.Config)
}

// roundResult is what one round measured.
type roundResult struct {
	setup     time.Duration // host time to build the system
	wall      time.Duration // host time of the measured window
	sim       time.Duration // simulated time of the measured window
	lats      []time.Duration
	ncommits  int
	attempted int
	failed    int
	lastErr   error

	mallocs, allocBytes uint64
	retained            int64   // live heap growth over the window
	gcShare             float64 // GC's share of the window's CPU

	counters stats.Snapshot

	// Filled by profiled rounds only.
	profile  *telemetry.ProfileReport
	modBytes map[string]int64 // heap bytes by innermost repro/internal module
	outBytes int64            // heap bytes with no repro/internal frame

	calls   [numOps]int
	hostDur [numOps]time.Duration
	simDur  [numOps]time.Duration
}

func (r *roundResult) commits() int { return r.ncommits }

// config is the cluster configuration a round of w runs: the zero value
// plus the workload's flags, the virtual clock and the VAX-750 disk and
// network latencies.
func config(w workload, clk vtime.Clock, opts roundOpts) cluster.Config {
	cfg := w.config()
	cfg.Clock = clk
	cfg.DiskSyncDelay = vax.DiskWriteTime
	cfg.Net.Latency = vax.MsgTime
	if opts.collector {
		cfg.Trace = trace.NewCollector(0)
	}
	if opts.tweak != nil {
		opts.tweak(&cfg)
	}
	return cfg
}

// runRound builds a fresh system for w, runs its clients to completion
// and checks the result after a crash and restart of every site.  A
// round that fails its check returns its tally with the error.
func runRound(w workload, opts roundOpts) (*roundResult, error) {
	r := &roundResult{}
	clk := vtime.NewVirtual()

	t0 := time.Now()
	sys := core.NewSystem(config(w, clk, opts))
	defer sys.Cluster().Shutdown()
	if err := w.build(sys); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	procs := make([]*core.Process, clients)
	for c := range procs {
		var err error
		if procs[c], err = sys.NewProcess(w.clientSite(c)); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	r.setup = time.Since(t0)

	// The clients' tallies are allocated before the window, so the
	// window's allocations and retained heap are the program's.
	cls := make([]*client, clients)
	errs := make([]error, clients)
	for c := range cls {
		cls[c] = &client{clk: clk, spans: opts.spans, lats: make([]time.Duration, 0, 1<<12)}
	}
	if opts.profile {
		sys.Stats().Registry().EnableProfiling()
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0, mallocs0, bytes0 := ms.HeapAlloc, ms.Mallocs, ms.TotalAlloc
	cpu0 := readCPU()
	var prof0 heapProfile
	if opts.profile {
		prof0 = readHeapProfile()
	}
	before := sys.Stats().Snapshot()
	sim0 := clk.Now()
	t0 = time.Now()

	runClient := func(g *vtime.Group, c int) {
		g.Go(func() { errs[c] = w.run(procs[c], c, cls[c]) })
	}
	if opts.serial {
		for c := range cls {
			g := vtime.NewGroup(clk)
			runClient(g, c)
			g.Wait()
		}
	} else {
		g := vtime.NewGroup(clk)
		for c := range cls {
			runClient(g, c)
		}
		g.Wait()
	}
	// Background actors (asynchronous phase two, the group-commit
	// daemon, placement moves) finish the window's work before it
	// closes.
	clk.WaitIdle()

	r.wall = time.Since(t0)
	r.sim = clk.Now().Sub(sim0)
	runtime.ReadMemStats(&ms)
	r.mallocs, r.allocBytes = ms.Mallocs-mallocs0, ms.TotalAlloc-bytes0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.retained = int64(ms.HeapAlloc) - int64(heap0)
	r.gcShare = readCPU().gcShareSince(cpu0)
	r.counters = sys.Stats().Snapshot().Sub(before)
	if opts.profile {
		r.modBytes, r.outBytes = readHeapProfile().byModule(prof0)
		r.profile = sys.Stats().Registry().Profiler().Report()
	}

	for c, cl := range cls {
		if errs[c] != nil {
			return nil, fmt.Errorf("client %d: %w", c, errs[c])
		}
		r.lats = append(r.lats, cl.lats...)
		r.attempted += cl.attempted
		r.failed += cl.failed
		if cl.lastErr != nil {
			r.lastErr = cl.lastErr
		}
		for o := range cl.calls {
			r.calls[o] += cl.calls[o]
			r.hostDur[o] += cl.hostDur[o]
			r.simDur[o] += cl.simDur[o]
		}
	}
	for _, cl := range cls {
		if cl.violation != nil {
			return r, cl.violation
		}
	}
	r.ncommits = len(r.lats)
	if r.commits() == 0 {
		return nil, fmt.Errorf("no transaction committed; last error: %v", r.lastErr)
	}

	if err := recoverAll(sys, clk); err != nil {
		return r, err
	}
	checker, err := sys.NewProcess(w.clientSite(0))
	if err != nil {
		return nil, err
	}
	return r, w.verify(sys, checker)
}

// latencyStep is the resolution of simulated latency: every disk and
// network delay of the cost model is a whole number of milliseconds.
const latencyStep = time.Millisecond

// quantile returns the q-quantile of sorted simulated latencies read as
// grouped data: the commits that share one latency v are spread evenly
// over the step [v-latencyStep/2, v+latencyStep/2), and the quantile is
// interpolated within the step that holds it.  Most commits share a
// handful of latencies (on skew-allflags three in five take exactly
// 230 ms), so a nearest-rank percentile stays on one step until the
// whole step moves; this one also moves with the share of commits on
// either side of it, and never leaves the step.
func quantile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	k := q * float64(n)
	i := int(k)
	if i >= n {
		i = n - 1
	}
	v := sorted[i]
	first := sort.Search(n, func(j int) bool { return sorted[j] >= v })
	last := sort.Search(n, func(j int) bool { return sorted[j] > v })
	frac := (k - float64(first)) / float64(last-first)
	return v - latencyStep/2 + time.Duration(frac*float64(latencyStep))
}

// percentile returns the q-quantile of xs, interpolated between the two
// nearest ranks.
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 { return percentile(xs, 0.5) }
