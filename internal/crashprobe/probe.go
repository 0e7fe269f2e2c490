// Package crashprobe is a deterministic, exhaustive crash-schedule
// explorer for the commit machinery: for each workload it first runs a
// counting pass to learn N, the number of stable page writes each disk
// performs, then replays the workload N times, arming
// simdisk.CrashAfterWrites(i) for every index i (optionally restricted
// to one IOKind class).  After each crash it drives full site recovery
// (Site.Restart, ResolveInDoubt, coordinator phase-two retries) and
// mechanically checks the DESIGN.md section 5 invariants: per-file
// all-or-nothing, durability of confirmed commits, no torn log records,
// and consistent resolution of in-doubt transactions across sites.
//
// Unlike the randomized schedules of internal/chaos, a probe sweep is a
// complete enumeration: every instant at which a crash could separate
// one stable write from the next is visited exactly once, so a clean
// matrix is a proof over the workload's whole crash surface, not a
// sample of it.  Everything is deterministic - same options, same
// result, byte for byte.
package crashprobe

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/simdisk"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Options selects and bounds one probe sweep.
type Options struct {
	// Workload is one of "single", "diff", "tpc", "migrate",
	// "readonly", "onephase", "lease", "ownermove", or "all"/"" for
	// every workload.
	Workload string
	// Kind optionally restricts the sweep to one I/O class ("data",
	// "inode", "coordlog", "preparelog"): only stable writes of that
	// kind are counted and crashed on.  Empty sweeps every write.
	Kind string
	// MaxPointsPerDisk bounds the sweep per disk: when a disk exposes
	// more crash points than this, the indices are stride-sampled
	// (first and last always included).  Zero means exhaustive.
	MaxPointsPerDisk int
	// Forensics attaches the causal trace tail of the touched files to
	// each violation.
	Forensics bool
	// Logf reports per-point progress (nil = silent).
	Logf func(format string, args ...any)
}

// PointResult is the verdict of one crash point: the workload replayed
// with the named disk armed to fail its (Index+1)-th stable write.
// Index -1 is the counting run (no crash armed).
type PointResult struct {
	Site   int
	Volume string
	Index  int
	Kind   string `json:",omitempty"`
	// Fired reports whether the armed fault actually tripped.
	Fired bool
	// Confirmed reports whether the commit was confirmed to the client
	// (EndTrans returned nil).  Confirmed implies the committed state
	// must survive recovery.
	Confirmed bool
	// State summarizes the committed content the audit read back:
	// "pre", "post", or a workload-specific anomaly tag.
	State      string
	Violations []string `json:",omitempty"`
	Forensics  []string `json:",omitempty"`
}

// DiskSweep is the exhaustive (or stride-bounded) sweep of one disk.
type DiskSweep struct {
	Site   int
	Volume string
	// Writes is N, the stable write count the counting run learned.
	Writes int
	// Swept is how many of those indices were replayed (== Writes
	// unless MaxPointsPerDisk bounded the sweep).
	Swept  int
	Points []PointResult
}

// WorkloadResult is one workload's full crash matrix.
type WorkloadResult struct {
	Workload string
	Baseline PointResult
	Disks    []DiskSweep
}

// Result is a whole probe run.
type Result struct {
	Kind      string `json:",omitempty"`
	Workloads []WorkloadResult
}

// OK reports whether every point of every matrix passed.
func (r *Result) OK() bool { return len(r.Violations()) == 0 }

// Points returns the total number of crash points replayed.
func (r *Result) Points() int {
	n := 0
	for _, w := range r.Workloads {
		for _, d := range w.Disks {
			n += len(d.Points)
		}
	}
	return n
}

// Violations flattens every failing point's findings, each prefixed
// with its workload and crash point.
func (r *Result) Violations() []string {
	var out []string
	for _, w := range r.Workloads {
		for _, v := range w.Baseline.Violations {
			out = append(out, fmt.Sprintf("%s baseline: %s", w.Workload, v))
		}
		for _, d := range w.Disks {
			for _, pt := range d.Points {
				for _, v := range pt.Violations {
					out = append(out, fmt.Sprintf("%s %s@%d: %s", w.Workload, pt.Volume, pt.Index, v))
				}
			}
		}
	}
	return out
}

// JSON renders the result deterministically: same options, same bytes.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Report renders the human-readable matrix summary.
func (r *Result) Report() string {
	var b strings.Builder
	for _, w := range r.Workloads {
		total, fired, bad := 0, 0, 0
		for _, d := range r.disksOf(w.Workload) {
			for _, pt := range d.Points {
				total++
				if pt.Fired {
					fired++
				}
				if len(pt.Violations) > 0 {
					bad++
				}
			}
		}
		fmt.Fprintf(&b, "workload %-8s", w.Workload)
		for _, d := range w.Disks {
			fmt.Fprintf(&b, "  %s:%d writes (%d swept)", d.Volume, d.Writes, d.Swept)
		}
		fmt.Fprintf(&b, "  points=%d fired=%d violations=%d\n", total, fired, bad)
		if len(w.Baseline.Violations) > 0 {
			fmt.Fprintf(&b, "  FAIL baseline (state=%s)\n", w.Baseline.State)
			for _, v := range w.Baseline.Violations {
				fmt.Fprintf(&b, "    - %s\n", v)
			}
		}
		for _, d := range w.Disks {
			for _, pt := range d.Points {
				if len(pt.Violations) == 0 {
					continue
				}
				fmt.Fprintf(&b, "  FAIL %s@%d (fired=%v confirmed=%v state=%s)\n",
					pt.Volume, pt.Index, pt.Fired, pt.Confirmed, pt.State)
				for _, v := range pt.Violations {
					fmt.Fprintf(&b, "    - %s\n", v)
				}
				for _, f := range pt.Forensics {
					fmt.Fprintf(&b, "      %s\n", f)
				}
			}
		}
	}
	if r.OK() {
		b.WriteString("verdict: PASS\n")
	} else {
		fmt.Fprintf(&b, "verdict: FAIL (%d violations)\n", len(r.Violations()))
	}
	return b.String()
}

func (r *Result) disksOf(workload string) []DiskSweep {
	for _, w := range r.Workloads {
		if w.Workload == workload {
			return w.Disks
		}
	}
	return nil
}

// workload is one probed scenario: a deterministic, serial transaction
// whose crash surface the sweep enumerates.
type workload interface {
	name() string
	// sites is the cluster size; site i hosts volume "v<i>".
	sites() int
	// paths lists the files the content audit reads (and the objects
	// forensics are collected for).
	paths() []string
	// setup commits the baseline state.  Stable writes here happen
	// before the fault is armed and are not crash points.
	setup(h *harness) error
	// run executes the probed transaction; confirmed reports whether
	// the commit was confirmed to the client.
	run(h *harness) (confirmed bool)
	// check audits the committed content after recovery, reading
	// through p.
	check(h *harness, p *core.Process, confirmed bool) (state string, violations []string)
	// cleanup retires auxiliary processes (best effort; after a crash
	// the site restart has already reaped them).
	cleanup(h *harness)
}

func workloads() []workload {
	return []workload{&singleWL{}, &diffWL{}, &tpcWL{}, &migrateWL{}, &readonlyWL{}, &onephaseWL{}, &leaseWL{}, &ownermoveWL{}}
}

func selectWorkloads(name string) ([]workload, error) {
	all := workloads()
	if name == "" || name == "all" {
		return all, nil
	}
	for _, w := range all {
		if w.name() == name {
			return []workload{w}, nil
		}
	}
	var names []string
	for _, w := range all {
		names = append(names, w.name())
	}
	return nil, fmt.Errorf("crashprobe: unknown workload %q (want %s or all)",
		name, strings.Join(names, ", "))
}

// parseKind maps an Options.Kind name to its IOKind.
func parseKind(name string) (simdisk.IOKind, bool, error) {
	if name == "" {
		return 0, false, nil
	}
	for _, k := range []simdisk.IOKind{
		simdisk.IOData, simdisk.IOInode, simdisk.IOCoordLog,
		simdisk.IOPrepareLog, simdisk.IOWAL, simdisk.IOMeta,
	} {
		if k.String() == name {
			return k, true, nil
		}
	}
	return 0, false, fmt.Errorf("crashprobe: unknown I/O kind %q", name)
}

// harness is one replay's cluster: site i in 1..n hosts volume "v<i>".
type harness struct {
	sys       *core.System
	collector *trace.Collector
	n         int
}

func volName(i int) string { return fmt.Sprintf("v%d", i) }

// configurer is implemented by workloads that probe an optional commit
// path (fast paths, lock leases, adaptive placement): configure turns it
// on in the harness's cluster configuration.
type configurer interface {
	configure(cfg *cluster.Config)
}

// diskRef names one disk of the sweep: the volume at a site.  Most
// workloads sweep each site's own mounted volume; a sweeper overrides
// the list (the ownermove workload adds the hosted volume an adopted
// file lands on at its new home site).
type diskRef struct {
	Site   int
	Volume string
}

// sweeper is implemented by workloads whose crash surface spans disks
// beyond the one-mounted-volume-per-site default.  Every listed volume
// must exist once setup returns.
type sweeper interface {
	sweepDisks() []diskRef
}

// sweepDisksOf returns the workload's disk list.
func sweepDisksOf(w workload) []diskRef {
	if sw, ok := w.(sweeper); ok {
		return sw.sweepDisks()
	}
	refs := make([]diskRef, 0, w.sites())
	for i := 1; i <= w.sites(); i++ {
		refs = append(refs, diskRef{Site: i, Volume: volName(i)})
	}
	return refs
}

func newHarness(w workload) (*harness, error) {
	col := trace.NewCollector(0)
	cfg := cluster.Config{
		// Synchronous phase two and no retry timer: the only actors are
		// the workload's own calls, so the i-th stable write is the
		// same write on every replay.
		SyncPhase2:      true,
		LockWaitTimeout: 2 * time.Second,
		Trace:           col,
		Net:             simnet.Config{Seed: 7},
	}
	if c, ok := w.(configurer); ok {
		c.configure(&cfg)
	}
	sys := core.NewSystem(cfg)
	h := &harness{sys: sys, collector: col, n: w.sites()}
	for i := 1; i <= h.n; i++ {
		id := simnet.SiteID(i)
		sys.AddSite(id)
		if err := sys.AddVolume(id, volName(i)); err != nil {
			sys.Cluster().Shutdown()
			return nil, err
		}
	}
	return h, nil
}

func (h *harness) close() { h.sys.Cluster().Shutdown() }
func (h *harness) site(i int) *cluster.Site {
	return h.sys.Cluster().Site(simnet.SiteID(i))
}
func (h *harness) disk(i int) *simdisk.Disk {
	return h.site(i).Volume(volName(i)).Disk()
}

// diskAt resolves a sweep disk ref; the volume may be a hosted one
// (created by an ownership-move adoption), as long as setup created it.
func (h *harness) diskAt(ref diskRef) *simdisk.Disk {
	vol := h.site(ref.Site).Volume(ref.Volume)
	if vol == nil {
		return nil
	}
	return vol.Disk()
}

// stableWritesAt reads the probe's write counter for a sweep disk.
func (h *harness) stableWritesAt(ref diskRef, kind simdisk.IOKind, useKind bool) int64 {
	d := h.diskAt(ref)
	if d == nil {
		return 0
	}
	if useKind {
		return d.StableWritesOfKind(kind)
	}
	return d.StableWrites()
}

// recover crash-restarts every site whose disk tripped, then drains
// resolution: in-doubt participants resolve against coordinator records,
// coordinators re-drive phase two, and the asynchronous topology-abort
// watcher finishes releasing locks.  The deadline only bounds a buggy
// system; a correct one drains in a few iterations.
func (h *harness) recover() error {
	for i := 1; i <= h.n; i++ {
		s := h.site(i)
		crashed := h.disk(i).Crashed()
		// A site is also down when any hosted volume's disk tripped
		// (ownership-move adoptions land on hosted volumes).
		for _, name := range s.Volumes() {
			if vol := s.Volume(name); vol != nil && vol.Disk().Crashed() {
				crashed = true
			}
		}
		if crashed && s.Up() {
			s.Crash()
		}
	}
	for i := 1; i <= h.n; i++ {
		if s := h.site(i); !s.Up() {
			if err := s.Restart(); err != nil {
				return fmt.Errorf("crashprobe: restart site %d: %w", i, err)
			}
		}
	}
	return nil
}

func (h *harness) drain() {
	deadline := time.Now().Add(5 * time.Second)
	for {
		pending := 0
		for i := 1; i <= h.n; i++ {
			s := h.site(i)
			if _, err := s.ResolveInDoubt(); err != nil {
				pending++
			}
			pending += s.InDoubtCount()
			if coord, err := s.Coordinator(); err == nil {
				coord.RetryPending()
				pending += coord.PendingCount()
			}
			lm := s.Locks()
			for _, fid := range lm.Files() {
				if fl := lm.Lookup(fid); fl != nil {
					// Lease entries are not pending work: a lease waits
					// for a conflicting request or its TTL, not for any
					// transaction to finish.
					for _, en := range fl.Entries() {
						if !en.Leased {
							pending++
						}
					}
				}
			}
		}
		if pending == 0 || time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// Run executes the sweep the options select.
func Run(opts Options) (*Result, error) {
	list, err := selectWorkloads(opts.Workload)
	if err != nil {
		return nil, err
	}
	if _, _, err := parseKind(opts.Kind); err != nil {
		return nil, err
	}
	res := &Result{Kind: opts.Kind}
	for _, w := range list {
		wr, err := sweepWorkload(w, opts)
		if err != nil {
			return nil, err
		}
		res.Workloads = append(res.Workloads, *wr)
	}
	return res, nil
}

func sweepWorkload(w workload, opts Options) (*WorkloadResult, error) {
	kind, useKind, _ := parseKind(opts.Kind)
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Counting run: learn each disk's stable write count, and audit the
	// crash-free path while we are at it.
	h, err := newHarness(w)
	if err != nil {
		return nil, err
	}
	if err := w.setup(h); err != nil {
		h.close()
		return nil, fmt.Errorf("crashprobe: %s setup: %w", w.name(), err)
	}
	refs := sweepDisksOf(w)
	base := make([]int64, len(refs))
	for i, ref := range refs {
		base[i] = h.stableWritesAt(ref, kind, useKind)
	}
	confirmed := w.run(h)
	counts := make([]int, len(refs))
	for i, ref := range refs {
		counts[i] = int(h.stableWritesAt(ref, kind, useKind) - base[i])
	}
	w.cleanup(h)
	h.drain()
	wr := &WorkloadResult{Workload: w.name()}
	wr.Baseline = PointResult{Index: -1, Kind: opts.Kind, Confirmed: confirmed}
	auditPoint(h, w, &wr.Baseline, opts.Forensics)
	if !confirmed {
		wr.Baseline.Violations = append(wr.Baseline.Violations,
			"counting run did not confirm its commit: the workload is broken without any fault")
	}
	h.close()
	logf("%s: counting run confirmed=%v state=%s", w.name(), confirmed, wr.Baseline.State)

	// Replay matrix: one disk armed per replay, every index visited.
	for i, ref := range refs {
		ds := DiskSweep{Site: ref.Site, Volume: ref.Volume, Writes: counts[i]}
		indices := sampleIndices(counts[i], opts.MaxPointsPerDisk)
		ds.Swept = len(indices)
		if ds.Swept < ds.Writes {
			logf("%s %s: bounding sweep to %d of %d crash points (stride sample)",
				w.name(), ds.Volume, ds.Swept, ds.Writes)
		}
		for _, idx := range indices {
			pt, err := probePoint(w, ref, idx, kind, useKind, opts)
			if err != nil {
				return nil, err
			}
			ds.Points = append(ds.Points, pt)
			if len(pt.Violations) > 0 {
				logf("%s %s@%d: FAIL (%d violations)", w.name(), ds.Volume, idx, len(pt.Violations))
			}
		}
		logf("%s %s: swept %d points", w.name(), ds.Volume, ds.Swept)
		wr.Disks = append(wr.Disks, ds)
	}
	return wr, nil
}

// probePoint replays the workload once with the ref'd disk armed to
// fail its (idx+1)-th stable write, then recovers and audits.
func probePoint(w workload, ref diskRef, idx int, kind simdisk.IOKind, useKind bool, opts Options) (PointResult, error) {
	pt := PointResult{Site: ref.Site, Volume: ref.Volume, Index: idx, Kind: opts.Kind}
	h, err := newHarness(w)
	if err != nil {
		return pt, err
	}
	defer h.close()
	if err := w.setup(h); err != nil {
		return pt, fmt.Errorf("crashprobe: %s setup: %w", w.name(), err)
	}
	disk := h.diskAt(ref)
	if disk == nil {
		return pt, fmt.Errorf("crashprobe: %s: sweep disk %s@%d does not exist after setup", w.name(), ref.Volume, ref.Site)
	}
	if useKind {
		disk.CrashAfterWritesOfKind(kind, idx)
	} else {
		disk.CrashAfterWrites(idx)
	}
	pt.Confirmed = w.run(h)
	pt.Fired = disk.Crashed()
	if !pt.Fired {
		// The budget survived the run (the error path at an earlier
		// point skipped this write): disarm so the audit's own I/O
		// cannot trip it.
		disk.CrashAfterWrites(-1)
	}
	if err := h.recover(); err != nil {
		return pt, err
	}
	w.cleanup(h)
	h.drain()
	auditPoint(h, w, &pt, opts.Forensics)
	return pt, nil
}

// auditPoint fills pt's verdict: the cluster-wide section 5 checks of
// internal/audit, then the workload's content check (in that order: the
// lock-table scan must precede content reads, which themselves take and
// release locks), and, when asked and anything failed, the trace tails
// of the workload's files.
func auditPoint(h *harness, w workload, pt *PointResult, forensics bool) {
	for _, c := range audit.Recovered(h.sys) {
		pt.Violations = append(pt.Violations, c.Violations...)
	}
	if p, err := h.sys.NewProcess(1); err != nil {
		pt.State = "unreadable"
		pt.Violations = append(pt.Violations, fmt.Sprintf("audit process: %v", err))
	} else {
		state, cv := w.check(h, p, pt.Confirmed)
		pt.State = state
		pt.Violations = append(pt.Violations, cv...)
	}
	if forensics && len(pt.Violations) > 0 {
		for _, path := range w.paths() {
			pt.Forensics = append(pt.Forensics, h.collector.Forensics(path)...)
		}
	}
}

// sampleIndices returns the crash indices to replay for a disk exposing
// n stable writes: all of them, or max stride-sampled indices always
// including the first and last.
func sampleIndices(n, max int) []int {
	if n <= 0 {
		return nil
	}
	if max <= 0 || n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if max == 1 {
		return []int{n - 1}
	}
	seen := make(map[int]bool)
	var out []int
	for k := 0; k < max; k++ {
		idx := k * (n - 1) / (max - 1)
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}
