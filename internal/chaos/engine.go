package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/simdisk"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Options configures one chaos run.
type Options struct {
	Seed     int64                            // drives schedule generation and worker choices
	Duration time.Duration                    // workload window (default 2s)
	Sites    int                              // cluster size (default 4, min 2)
	Workers  int                              // concurrent workload goroutines (default 6, min 2)
	Faults   FaultSet                         // kinds GenSchedule may draw (default all)
	Schedule Schedule                         // explicit schedule; overrides generation
	Logf     func(format string, args ...any) // live fault/progress log (nil = silent)
	// GroupCommit enables the log-batching daemon on every volume, so
	// crashes land mid-batch and the audit checks that a torn batch
	// loses whole records, never partial ones.  Zero keeps the paper's
	// synchronous one-force-per-record behavior.
	GroupCommit time.Duration
	// FastPaths enables the DESIGN.md section 10 commit fast paths
	// (read-only votes, one-phase commit, parallel phase two) and mixes
	// read-only audit transactions into the transfer workers, so faults
	// land between a read-only vote and the outcome it never waits for.
	// The audit then proves the fast paths leak nothing: locks released,
	// no stale prepare records.
	FastPaths bool
	// LockLeases enables sticky lock leases (DESIGN.md section 13) with a
	// TTL short enough that callback revokes, partition-delayed revokes
	// falling back to expiry, and leaseholder crashes all interleave with
	// the fault schedule.  The audit is unchanged: leases must never let a
	// section 5 invariant slip.
	LockLeases bool
	// Placement enables locality-adaptive placement (DESIGN.md section
	// 14) with aggressive policy knobs, so ownership moves and routed
	// commits fire constantly and interleave with every fault in the
	// schedule: partitions land mid-move, sites crash holding a shipped
	// copy whose home flip never committed.  The single-primary check
	// (run in every mode) then has real moves to audit: after recovery
	// every workload file must have exactly one local copy, stored
	// where the catalog says.
	Placement bool
	// Vtime runs the whole chaos run on a virtual discrete-event clock
	// charging the paper's VAX-750 latencies (8ms per message hop, 26ms
	// per forced disk I/O): the fault schedule fires at exact simulated
	// instants while wall-clock time shrinks by orders of magnitude.
	// Duration then counts simulated, not real, time.  Timeouts scale up
	// with the latencies (1s call and lock-wait timeouts, 100ms retry
	// interval) because a multi-hop handler at VAX speed outlasts the
	// real-mode tunings.
	Vtime bool
	// Telemetry enables commit-path profiling and fills the Result's
	// Profile and Metrics with the run's attribution report and final
	// registry snapshot.
	Telemetry bool
}

const (
	initialBalance = 1000
	// markerFmt stamps pair files: worker then attempt, fixed width so a
	// committed pair always holds exactly one whole marker.
	markerFmt = "W%03d-%05d"
)

// pairState is one pair worker's ground truth for the audit: the pair
// must end up all-or-nothing, holding a marker the worker issued, no
// older than its last client-confirmed commit.
type pairState struct {
	worker       int
	pathA, pathB string
	attempts     int // markers issued: 0..attempts-1
	confirmed    int // highest attempt whose EndTrans returned nil; -1 = none
}

// Result is the outcome of a chaos run.  Schedule and Checks are
// deterministic for a given (Seed, Duration, Sites, Workers, Faults);
// Commits/Aborts depend on real scheduling and are reported separately.
type Result struct {
	Seed       int64
	Sites      int
	Workers    int
	Duration   time.Duration
	FastPaths  bool
	LockLeases bool
	Placement  bool
	Vtime      bool
	Schedule   Schedule
	Commits    int64
	Aborts     int64
	// OwnerMoves and RoutedCommits count the placement machinery's
	// activity over the run (zero unless Options.Placement was set).
	// Like Commits/Aborts they depend on real scheduling, but under
	// Vtime they are exact.
	OwnerMoves    int64
	RoutedCommits int64
	Checks        []audit.Check
	// SimElapsed is the total simulated time of a Vtime run (zero
	// otherwise): workload window plus quiesce and recovery.
	SimElapsed time.Duration
	// Profile and Metrics carry the commit critical-path attribution and
	// the final metrics-registry snapshot when Options.Telemetry was set
	// (Profile nil otherwise).  Like Commits/Aborts they depend on real
	// scheduling and stay out of the deterministic report body.
	Profile *telemetry.ProfileReport
	Metrics telemetry.Snapshot
}

// OK reports whether every invariant held.
func (r *Result) OK() bool {
	for _, c := range r.Checks {
		if len(c.Violations) > 0 {
			return false
		}
	}
	return true
}

// Violations flattens every failed check's findings.
func (r *Result) Violations() []string {
	var out []string
	for _, c := range r.Checks {
		for _, v := range c.Violations {
			out = append(out, c.Name+": "+v)
		}
	}
	return out
}

// TelemetrySummary renders the run's commit critical-path attribution
// and headline utilization counters; empty when the run was not
// telemetered.  Like the stats line, the figures depend on real
// scheduling, so they stay out of the deterministic Report body.
func (r *Result) TelemetrySummary() string {
	if r.Profile == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(r.Profile.Summary())
	c := r.Metrics.Counters
	fmt.Fprintf(&b, "spindle busy: %s  net transit: %s  deadlock scans: %d (victims %d)\n",
		time.Duration(c["disk_busy_ns"]), time.Duration(c["net_transit_ns"]),
		c["deadlock_scans"], c["deadlock_victims"])
	if h, ok := r.Metrics.Histograms["group_commit_batch_size"]; ok && h.Count > 0 {
		fmt.Fprintf(&b, "group commit: %d flushes, mean batch %.1f records\n",
			h.Count, float64(h.Sum)/float64(h.Count))
	}
	return b.String()
}

// ReplayCommand is the locuschaos invocation that reproduces this run's
// schedule and verdicts exactly.
func (r *Result) ReplayCommand() string {
	cmd := fmt.Sprintf("locuschaos -seed %d -sites %d -workers %d -duration %s",
		r.Seed, r.Sites, r.Workers, r.Duration)
	if r.FastPaths {
		cmd += " -fastpaths"
	}
	if r.LockLeases {
		cmd += " -leases"
	}
	if r.Placement {
		cmd += " -placement"
	}
	if r.Vtime {
		cmd += " -vtime"
	}
	return cmd
}

// Report renders the run: header, fault timeline, invariant verdicts.
// Everything here is bit-for-bit reproducible from the same options;
// withStats appends the (nondeterministic) commit/abort counts.
func (r *Result) Report(withStats bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d sites=%d workers=%d duration=%s\n",
		r.Seed, r.Sites, r.Workers, r.Duration)
	fmt.Fprintf(&b, "schedule (%d faults):\n%s", len(r.Schedule), r.Schedule.String())
	b.WriteString("invariants:\n")
	for _, c := range r.Checks {
		if len(c.Violations) == 0 {
			fmt.Fprintf(&b, "  PASS %s (%s)\n", c.Name, c.Detail)
			continue
		}
		fmt.Fprintf(&b, "  FAIL %s (%s)\n", c.Name, c.Detail)
		for _, v := range c.Violations {
			fmt.Fprintf(&b, "    - %s\n", v)
		}
		for _, f := range c.Forensics {
			fmt.Fprintf(&b, "      %s\n", f)
		}
	}
	if r.OK() {
		b.WriteString("verdict: PASS\n")
	} else {
		fmt.Fprintf(&b, "verdict: FAIL\nreplay: %s\n", r.ReplayCommand())
	}
	if withStats {
		fmt.Fprintf(&b, "stats: %d commits, %d aborts\n", r.Commits, r.Aborts)
		if r.Placement {
			fmt.Fprintf(&b, "stats: %d owner moves, %d routed commits\n", r.OwnerMoves, r.RoutedCommits)
		}
		if r.Vtime {
			fmt.Fprintf(&b, "stats: %s simulated\n", r.SimElapsed)
		}
	}
	return b.String()
}

// engine carries one run's state between setup, workload and audit.
type engine struct {
	opts      Options
	sys       *core.System
	collector *trace.Collector // always attached: forensics must exist when an invariant fails
	sched     Schedule
	pairs     []*pairState
	accounts  []string // account file paths; committed balances must sum to total
	total     int64
	commits   atomic.Int64
	aborts    atomic.Int64
	clk       vtime.Clock
	stop      chan struct{} // closed at end of the workload window
	mon       *vtime.Group  // armcrash monitors: disk tripped -> site down
}

// stopped polls the workload-window flag without blocking (safe under
// the virtual clock: no token is parked).
func (e *engine) stopped() bool {
	select {
	case <-e.stop:
		return true
	default:
		return false
	}
}

func (e *engine) logf(format string, args ...any) {
	if e.opts.Logf != nil {
		e.opts.Logf(format, args...)
	}
}

// Run executes one chaos run end to end: build a cluster, generate or
// take a fault schedule, run concurrent pair and transfer transactions
// while the scheduler injects the faults, then quiesce, force full
// crash-restart recovery, and audit the DESIGN.md section 5 invariants.
func Run(opts Options) (*Result, error) {
	if opts.Sites < 2 {
		if opts.Sites != 0 {
			return nil, fmt.Errorf("chaos: need at least 2 sites, got %d", opts.Sites)
		}
		opts.Sites = 4
	}
	if opts.Workers <= 0 {
		opts.Workers = 6
	}
	if opts.Workers < 2 {
		opts.Workers = 2
	}
	if opts.Duration <= 0 {
		opts.Duration = 2 * time.Second
	}
	if opts.Faults == nil {
		opts.Faults = DefaultFaults()
	}

	e := &engine{opts: opts}
	siteIDs := make([]simnet.SiteID, opts.Sites)
	for i := range siteIDs {
		siteIDs[i] = simnet.SiteID(i + 1)
	}
	e.sched = opts.Schedule
	if e.sched == nil {
		e.sched = GenSchedule(opts.Seed, opts.Duration, siteIDs, opts.Faults)
	}

	// The cluster runs phase two asynchronously with a short retry timer:
	// that is the configuration where lost commit messages, coordinator
	// crashes and the retry path all genuinely interleave.
	e.collector = trace.NewCollector(0)
	e.clk = vtime.Real()
	cfg := cluster.Config{
		RetryInterval:       10 * time.Millisecond,
		LockWaitTimeout:     75 * time.Millisecond,
		GroupCommitMaxDelay: opts.GroupCommit,
		FastPaths:           opts.FastPaths,
		Trace:               e.collector,
		Net: simnet.Config{
			CallTimeout: 60 * time.Millisecond,
			Seed:        opts.Seed,
		},
	}
	if opts.LockLeases {
		// The TTL sits under the lock-wait timeout so a waiter blocked on
		// an unreachable leaseholder (revoke lost to a partition) still
		// sees the lease expire before its own wait gives up.
		cfg.LockLeases = true
		cfg.LeaseTTL = 50 * time.Millisecond
	}
	if opts.Placement {
		// Aggressive knobs: a file moves once a remote site holds 60% of
		// two decayed accesses and may move again two accesses later, so
		// the fault schedule is guaranteed to catch moves in flight.
		cfg.AdaptivePlacement = true
		cfg.PlacementMinAccesses = 2
		cfg.PlacementCooldown = 2
	}
	if opts.Vtime {
		// Discrete-event mode charges the VAX-750 latencies of the
		// paper's measurements; the timeouts scale up to match (a
		// two-hop prepare at 8ms per message plus a 26ms log force
		// outlasts the real-mode 60ms budget many times over).
		vax := costmodel.Vax750()
		e.clk = vtime.NewVirtual()

		cfg.Clock = e.clk
		cfg.RetryInterval = 100 * time.Millisecond
		cfg.LockWaitTimeout = time.Second
		cfg.DiskSyncDelay = vax.DiskWriteTime
		cfg.Net.CallTimeout = time.Second
		cfg.Net.Latency = vax.MsgTime
		if opts.LockLeases {
			// Keep the TTL under the scaled-up lock-wait timeout.
			cfg.LeaseTTL = 500 * time.Millisecond
		}
	}
	e.sys = core.NewSystem(cfg)
	defer e.sys.Cluster().Shutdown()
	if opts.Telemetry {
		e.sys.Stats().Registry().EnableProfiling()
	}
	for _, id := range siteIDs {
		e.sys.AddSite(id)
		if err := e.sys.AddVolume(id, volName(id)); err != nil {
			return nil, err
		}
	}
	if err := e.setup(); err != nil {
		return nil, fmt.Errorf("chaos: workload setup: %w", err)
	}

	// Workload + fault injection.
	stop := make(chan struct{})
	e.stop = stop
	e.mon = vtime.NewGroup(e.clk)
	workers := vtime.NewGroup(e.clk)
	for w := 0; w < opts.Workers; w++ {
		w := w
		rng := rand.New(rand.NewSource(opts.Seed ^ (int64(w+1) << 20)))
		if w < len(e.pairs) {
			workers.Go(func() { e.pairWorker(e.pairs[w], rng, stop) })
		} else {
			workers.Go(func() { e.transferWorker(rng, stop) })
		}
	}
	sched := vtime.NewGroup(e.clk)
	start := e.clk.Now()
	sched.Go(func() {
		for _, f := range e.sched {
			if v, ok := vtime.AsVirtual(e.clk); ok {
				// Virtual sleeps cost no wall-clock, so sleeping past a
				// closed window is harmless; poll stop around the jump.
				if e.stopped() {
					return
				}
				v.SleepUntil(start.Add(f.At))
				if e.stopped() {
					return
				}
			} else {
				select {
				case <-stop:
					return
				case <-time.After(time.Until(start.Add(f.At))):
				}
			}
			e.apply(f)
		}
	})
	e.clk.Sleep(opts.Duration)
	close(stop)
	workers.Wait()
	sched.Wait()
	e.mon.Wait()

	if err := e.quiesce(); err != nil {
		return nil, err
	}

	res := &Result{
		Seed: opts.Seed, Sites: opts.Sites, Workers: opts.Workers,
		Duration: opts.Duration, FastPaths: opts.FastPaths,
		LockLeases: opts.LockLeases, Placement: opts.Placement, Vtime: opts.Vtime,
		Schedule: e.sched,
		Commits:  e.commits.Load(), Aborts: e.aborts.Load(),
	}
	snap := e.sys.Stats().Snapshot()
	res.OwnerMoves = snap.Get(stats.OwnerMoves)
	res.RoutedCommits = snap.Get(stats.RoutedCommits)
	if v, ok := vtime.AsVirtual(e.clk); ok {
		res.SimElapsed = v.Elapsed()
	}
	if opts.Telemetry {
		reg := e.sys.Stats().Registry()
		res.Profile = reg.Profiler().Report()
		res.Metrics = reg.Snapshot()
	}
	res.Checks = e.check()
	return res, nil
}

func volName(id simnet.SiteID) string { return fmt.Sprintf("v%d", id) }

// setup creates the pair files and the committed initial account
// balances before any fault fires.  Half the workers (at least one) run
// pair transactions, the rest run transfers over 2*Sites accounts.
func (e *engine) setup() error {
	nPairs := e.opts.Workers / 2
	if nPairs == 0 {
		nPairs = 1
	}
	p, err := e.sys.NewProcess(1)
	if err != nil {
		return err
	}
	n := e.opts.Sites
	for w := 0; w < nPairs; w++ {
		ps := &pairState{
			worker:    w,
			pathA:     fmt.Sprintf("%s/pair%02d", volName(simnet.SiteID(w%n+1)), w),
			pathB:     fmt.Sprintf("%s/pair%02d", volName(simnet.SiteID((w+1)%n+1)), w),
			confirmed: -1,
		}
		for _, path := range []string{ps.pathA, ps.pathB} {
			f, err := p.Create(path)
			if err != nil {
				return err
			}
			f.Close() //nolint:errcheck
		}
		e.pairs = append(e.pairs, ps)
	}

	// Accounts start at a committed balance; one transaction commits them
	// all so the audit's conservation baseline is exact.
	nAccts := 2 * n
	if _, err := p.BeginTrans(); err != nil {
		return err
	}
	for k := 0; k < nAccts; k++ {
		path := fmt.Sprintf("%s/acct%02d", volName(simnet.SiteID(k%n+1)), k)
		f, err := p.Create(path)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt([]byte(fmt.Sprintf("%08d", initialBalance)), 0); err != nil {
			return err
		}
		e.accounts = append(e.accounts, path)
	}
	if err := p.EndTrans(); err != nil {
		return err
	}
	e.total = int64(nAccts) * initialBalance
	return nil
}

// pairWorker repeatedly writes a fresh marker to both files of its pair
// inside a transaction.  Faults make aborts routine; the audit only
// cares that the pair is never torn and that confirmed commits survive.
func (e *engine) pairWorker(ps *pairState, rng *rand.Rand, stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		attempt := ps.attempts
		ps.attempts++
		marker := []byte(fmt.Sprintf(markerFmt, ps.worker, attempt))
		site := simnet.SiteID(rng.Intn(e.opts.Sites) + 1)
		if e.runPair(site, ps, marker) {
			ps.confirmed = attempt
			e.commits.Add(1)
		} else {
			e.aborts.Add(1)
			e.clk.Sleep(time.Millisecond)
		}
	}
}

func (e *engine) runPair(site simnet.SiteID, ps *pairState, marker []byte) bool {
	p, err := e.sys.NewProcess(site)
	if err != nil {
		return false
	}
	fa, err := p.Open(ps.pathA)
	if err != nil {
		return false
	}
	fb, err := p.Open(ps.pathB)
	if err != nil {
		return false
	}
	if _, err := p.BeginTrans(); err != nil {
		return false
	}
	if _, err := fa.WriteAt(marker, 0); err != nil {
		p.AbortTrans() //nolint:errcheck // best effort under injected faults
		return false
	}
	if _, err := fb.WriteAt(marker, 0); err != nil {
		p.AbortTrans() //nolint:errcheck
		return false
	}
	return p.EndTrans() == nil
}

// transferWorker moves random amounts between random account pairs.
// Every transfer conserves the total, so the final committed balances
// must still sum to the baseline whatever subset of transfers survived.
func (e *engine) transferWorker(rng *rand.Rand, stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		i, j := rng.Intn(len(e.accounts)), rng.Intn(len(e.accounts))
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i // fixed lock order across workers: no ABBA deadlocks
		}
		site := simnet.SiteID(rng.Intn(e.opts.Sites) + 1)
		// With fast paths on, a quarter of the attempts are pure read
		// audits: multi-site transactions whose participants all vote
		// read-only, so faults catch them between the vote (which already
		// released their locks) and the phase two they drop out of.
		if e.opts.FastPaths && rng.Intn(4) == 0 {
			if e.runReadAudit(site, e.accounts[i], e.accounts[j]) {
				e.commits.Add(1)
			} else {
				e.aborts.Add(1)
				e.clk.Sleep(time.Millisecond)
			}
			continue
		}
		amt := int64(1 + rng.Intn(10))
		if e.runTransfer(site, e.accounts[i], e.accounts[j], amt) {
			e.commits.Add(1)
		} else {
			e.aborts.Add(1)
			e.clk.Sleep(time.Millisecond)
		}
	}
}

func (e *engine) runTransfer(site simnet.SiteID, from, to string, amt int64) bool {
	p, err := e.sys.NewProcess(site)
	if err != nil {
		return false
	}
	fa, err := p.Open(from)
	if err != nil {
		return false
	}
	fb, err := p.Open(to)
	if err != nil {
		return false
	}
	if _, err := p.BeginTrans(); err != nil {
		return false
	}
	abort := func() bool {
		p.AbortTrans() //nolint:errcheck
		return false
	}
	ba, err := readBalance(fa)
	if err != nil {
		return abort()
	}
	bb, err := readBalance(fb)
	if err != nil {
		return abort()
	}
	if amt > ba {
		amt = ba // never overdraw; a zero transfer still exercises the protocol
	}
	if _, err := fa.WriteAt([]byte(fmt.Sprintf("%08d", ba-amt)), 0); err != nil {
		return abort()
	}
	if _, err := fb.WriteAt([]byte(fmt.Sprintf("%08d", bb+amt)), 0); err != nil {
		return abort()
	}
	return p.EndTrans() == nil
}

// runReadAudit reads two balances under shared locks and commits
// without writing anything: every participant votes read-only.
func (e *engine) runReadAudit(site simnet.SiteID, from, to string) bool {
	p, err := e.sys.NewProcess(site)
	if err != nil {
		return false
	}
	fa, err := p.Open(from)
	if err != nil {
		return false
	}
	fb, err := p.Open(to)
	if err != nil {
		return false
	}
	if _, err := p.BeginTrans(); err != nil {
		return false
	}
	abort := func() bool {
		p.AbortTrans() //nolint:errcheck
		return false
	}
	for _, f := range []*core.File{fa, fb} {
		if err := f.LockRange(0, 8, core.Shared); err != nil {
			return abort()
		}
		if _, err := readBalance(f); err != nil {
			return abort()
		}
	}
	return p.EndTrans() == nil
}

func readBalance(f *core.File) (int64, error) {
	buf := make([]byte, 8)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return 0, err
	}
	var v int64
	if _, err := fmt.Sscanf(string(buf), "%d", &v); err != nil {
		return 0, fmt.Errorf("chaos: unparseable balance %q: %v", buf, err)
	}
	return v, nil
}

// apply injects one scheduled fault into the live cluster.
func (e *engine) apply(f Fault) {
	cl := e.sys.Cluster()
	net := cl.Net()
	e.logf("inject +%s %s", f.At, f.String())
	// Stamp the injection into the trace at the targeted site (site 0 for
	// network-wide faults), so forensics interleave faults with the
	// transaction events they disturbed.
	e.collector.Site(int(f.Site)).Record(trace.CrashInject, "", f.String(), int64(f.At/time.Millisecond))
	switch f.Kind {
	case FaultCrash:
		if s := cl.Site(f.Site); s != nil && s.Up() {
			s.Crash()
		}
	case FaultDiskCrash:
		if s := cl.Site(f.Site); s != nil && s.Up() {
			// Media failure first (volatile pages gone), then the machine
			// goes down with its disks.
			for _, name := range s.Volumes() {
				if v := s.Volume(name); v != nil {
					v.Disk().Crash()
				}
			}
			s.Crash()
		}
	case FaultCrashWrites:
		if s := cl.Site(f.Site); s != nil && s.Up() {
			var disks []*simdisk.Disk
			for _, name := range s.Volumes() {
				if v := s.Volume(name); v != nil {
					disks = append(disks, v.Disk())
				}
			}
			for _, d := range disks {
				d.CrashAfterWrites(f.N)
			}
			// The crash fires inside whatever write exhausts the budget;
			// a monitor turns the media failure into the site failure the
			// rest of the schedule (and its restart) expects.
			e.mon.Go(func() { e.watchArmedDisks(f.Site, disks) })
		}
	case FaultRestart:
		if s := cl.Site(f.Site); s != nil && !s.Up() {
			if err := s.Restart(); err != nil {
				e.logf("restart site %d failed: %v", f.Site, err)
			}
		}
	case FaultPartition:
		net.Partition(f.Site)
	case FaultHeal:
		net.Heal()
	case FaultBlockLink:
		net.BlockLink(f.Site, f.To)
	case FaultUnblockLink:
		net.UnblockLink(f.Site, f.To)
	case FaultDrop:
		net.SetDropRate(f.Rate)
	case FaultDup:
		net.SetDupRate(f.Rate)
	case FaultLatency:
		net.SetLatency(f.Dur)
	}
}

// watchArmedDisks polls a site's armed disks until one trips (then the
// site goes down with its failed media) or the workload window closes
// (the budget outlived the run; quiesce's restart disarms it).
func (e *engine) watchArmedDisks(site simnet.SiteID, disks []*simdisk.Disk) {
	for {
		if e.stopped() {
			return
		}
		e.clk.Sleep(time.Millisecond)
		for _, d := range disks {
			if d.Crashed() {
				if s := e.sys.Cluster().Site(site); s != nil && s.Up() {
					e.logf("armcrash fired at site %d (disk %s)", site, d.Name())
					s.Crash()
				}
				return
			}
		}
	}
}

// quiesce returns the cluster to a clean, fully-recovered state: faults
// cleared, every site crash-restarted (so the audit sees only what
// stable storage and the recovery protocol preserve), in-doubt
// participants resolved and phase two drained everywhere.
func (e *engine) quiesce() error {
	cl := e.sys.Cluster()
	net := cl.Net()
	net.SetDropRate(0)
	net.SetDupRate(0)
	net.SetLatency(0)
	net.SetFaultFilter(nil)
	net.Heal()

	// An adoption request can sit queued in the network long after its
	// move gave up on it (the source's disown retries exhaust while the
	// target is unreachable, then the source forgets the move entirely at
	// its next crash).  If such a stale request lands after its target's
	// restart purge already ran, it installs an orphan copy nothing will
	// ever reclaim — except the next restart purge.  So the crash-restart
	// round repeats until one completes with no adoptions landing inside
	// it: the last round's purge then provably saw every copy.  No new
	// moves start once recovery has drained, so the rounds converge as
	// soon as the in-flight tail of the network empties.
	const maxRounds = 5
	for round := 1; round <= maxRounds; round++ {
		before := e.sys.Stats().Snapshot().Get(stats.OwnerAdopts)

		for _, id := range cl.Sites() {
			if s := cl.Site(id); s.Up() {
				s.Crash()
			}
		}
		for _, id := range cl.Sites() {
			if err := cl.Site(id).Restart(); err != nil {
				return fmt.Errorf("chaos: final restart of site %d: %w", id, err)
			}
		}

		deadline := e.clk.Now().Add(10 * time.Second)
		for {
			pending := 0
			for _, id := range cl.Sites() {
				s := cl.Site(id)
				n, err := s.ResolveInDoubt()
				if err != nil {
					return fmt.Errorf("chaos: resolve in doubt at site %d: %w", id, err)
				}
				pending += n
				if coord, err := s.Coordinator(); err == nil {
					coord.RetryPending()
					pending += coord.PendingCount()
				}
				// Recovery-driven commits can trigger ownership moves, and
				// an abandoned move disowns its copy from a detached purge
				// goroutine; the single-primary audit must not race either.
				pending += s.PlacementInFlight()
			}
			if pending == 0 {
				break
			}
			if e.clk.Now().After(deadline) {
				return errors.New("chaos: recovery never drained (in-doubt or pending phase two stuck)")
			}
			e.clk.Sleep(5 * time.Millisecond)
		}

		if e.sys.Stats().Snapshot().Get(stats.OwnerAdopts) == before {
			return nil
		}
		e.logf("quiesce: adoptions landed during restart round %d; running another purge round", round)
	}
	return errors.New("chaos: placement never quiesced (adoptions kept landing across restart rounds)")
}
