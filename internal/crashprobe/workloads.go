package crashprobe

import (
	"bytes"
	"fmt"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/simnet"
)

// The six workloads cover the commit shapes of the paper plus the
// DESIGN.md section 10 fast paths:
//
//	single   - single-file commit on one site (Figure 4(a) direct path:
//	           shadow pages flushed, one inode write is the commit point)
//	diff     - commit of a page shared with a non-transaction co-owner's
//	           uncommitted bytes (Figure 4(b) page differencing: the
//	           committed image is merged onto the stable previous version)
//	tpc      - two files on two storage sites, committed from a third:
//	           full two-phase commit with a coordinator log
//	migrate  - a transaction whose member process forks to a second site
//	           and whose top-level process migrates there before EndTrans,
//	           so the coordinator is not the origin site
//	readonly - two-phase commit with fast paths on where the remote
//	           participant only read: it answers VoteReadOnly, forces
//	           nothing, and drops out of phase two
//	onephase - single remote participant site with fast paths on: the
//	           combined prepare-and-commit message puts the commit point
//	           in the participant's own prepare-record force
//	lease    - sticky lock leases on: the probed transaction commits a
//	           remote file through the lease-hit path (no lock message;
//	           the storage site materializes the descriptor), then a
//	           conflicting transaction at the storage site forces the
//	           callback revoke - crash points land inside the lease
//	           machinery and must never tear either commit
//
//	ownermove - locality-adaptive placement on with aggressive knobs: the
//	           probed commit's post-commit sweep migrates the hot file's
//	           primary copy to its dominant accessor, inline, so crash
//	           points land inside the ownership move itself (source
//	           reclaim, target adoption, the namespace repoint between
//	           them) while a second commit races the moved file
//
// Each run is serial and deterministic: every replay performs the same
// stable writes in the same order until the armed crash fires.  (The
// lease workload's revoke callback is a network message, not a stable
// write, so it adds no crash points of its own.)

// Baseline and target images.  Sizes straddle page boundaries on
// purpose: pre is a page and a half, post two pages and change, so
// commits exercise partial-page tails and file extension.
var (
	preImage  = bytes.Repeat([]byte{'A'}, 1500)
	postImage = bytes.Repeat([]byte{'B'}, 2600)
)

// commitFile creates path and commits image into it.
func commitFile(p *core.Process, path string, image []byte) error {
	f, err := p.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() //nolint:errcheck
	if _, err := p.BeginTrans(); err != nil {
		return err
	}
	if _, err := f.WriteAt(image, 0); err != nil {
		p.AbortTrans() //nolint:errcheck
		return err
	}
	return p.EndTrans()
}

// classify names a committed image against the expected before/after
// states; anything else is an atomicity violation.
func classify(got, pre, post []byte) string {
	switch {
	case bytes.Equal(got, pre):
		return "pre"
	case bytes.Equal(got, post):
		return "post"
	default:
		return fmt.Sprintf("torn(len=%d)", len(got))
	}
}

// checkAllOrNothing audits one file against pre/post and the confirmed
// flag; the returned state is "pre" or "post" when the file is intact.
func checkAllOrNothing(p *core.Process, path string, pre, post []byte, confirmed bool) (string, []string) {
	got, err := audit.ReadCommitted(p, path)
	if err != nil {
		return "unreadable", []string{fmt.Sprintf("%s: committed read failed after recovery: %v", path, err)}
	}
	state := classify(got, pre, post)
	var violations []string
	if state != "pre" && state != "post" {
		violations = append(violations,
			fmt.Sprintf("%s: committed content is neither the old nor the new image (%s)", path, state))
	}
	if confirmed && state == "pre" {
		violations = append(violations,
			fmt.Sprintf("%s: commit was confirmed to the client but recovery reverted it", path))
	}
	return state, violations
}

// ---------------------------------------------------------------------
// single: single-file commit on one site.

type singleWL struct{}

func (*singleWL) name() string    { return "single" }
func (*singleWL) sites() int      { return 1 }
func (*singleWL) paths() []string { return []string{"v1/f"} }

func (*singleWL) setup(h *harness) error {
	p, err := h.sys.NewProcess(1)
	if err != nil {
		return err
	}
	return commitFile(p, "v1/f", preImage)
}

func (*singleWL) run(h *harness) bool {
	p, err := h.sys.NewProcess(1)
	if err != nil {
		return false
	}
	f, err := p.Open("v1/f")
	if err != nil {
		return false
	}
	if _, err := p.BeginTrans(); err != nil {
		return false
	}
	if _, err := f.WriteAt(postImage, 0); err != nil {
		p.AbortTrans() //nolint:errcheck // crash-path rollback is best effort
		return false
	}
	return p.EndTrans() == nil
}

func (*singleWL) check(h *harness, p *core.Process, confirmed bool) (string, []string) {
	return checkAllOrNothing(p, "v1/f", preImage, postImage, confirmed)
}

func (*singleWL) cleanup(*harness) {}

// ---------------------------------------------------------------------
// diff: commit of a page shared with a co-owner (Figure 4(b)).

const (
	coOff = 512 // co-owner's uncommitted range on the shared page
	coLen = 100
	txLen = 100 // transaction's range at offset 0 on the same page
)

type diffWL struct {
	coOwner *core.Process
	coFile  *core.File
}

func (*diffWL) name() string    { return "diff" }
func (*diffWL) sites() int      { return 1 }
func (*diffWL) paths() []string { return []string{"v1/f"} }

// diffPre is exactly one page of 'A': the shared page.
var diffPre = bytes.Repeat([]byte{'A'}, 1024)

func (w *diffWL) setup(h *harness) error {
	p, err := h.sys.NewProcess(1)
	if err != nil {
		return err
	}
	if err := commitFile(p, "v1/f", diffPre); err != nil {
		return err
	}
	// The co-owner holds uncommitted bytes on the same page and keeps
	// the file open, forcing the transaction's commit onto the page-
	// differencing path: its committed image must merge only the
	// transaction's ranges onto the stable previous version.
	co, err := h.sys.NewProcess(1)
	if err != nil {
		return err
	}
	cf, err := co.Open("v1/f")
	if err != nil {
		return err
	}
	if _, err := cf.WriteAt(bytes.Repeat([]byte{'C'}, coLen), coOff); err != nil {
		return err
	}
	w.coOwner, w.coFile = co, cf
	return nil
}

func (*diffWL) run(h *harness) bool {
	p, err := h.sys.NewProcess(1)
	if err != nil {
		return false
	}
	f, err := p.Open("v1/f")
	if err != nil {
		return false
	}
	if _, err := p.BeginTrans(); err != nil {
		return false
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{'B'}, txLen), 0); err != nil {
		p.AbortTrans() //nolint:errcheck
		return false
	}
	return p.EndTrans() == nil
}

func (w *diffWL) check(h *harness, p *core.Process, confirmed bool) (string, []string) {
	got, err := audit.ReadCommitted(p, "v1/f")
	if err != nil {
		return "unreadable", []string{fmt.Sprintf("v1/f: committed read failed after recovery: %v", err)}
	}
	var violations []string
	if len(got) != len(diffPre) {
		return fmt.Sprintf("torn(len=%d)", len(got)), []string{
			fmt.Sprintf("v1/f: committed size %d, want %d (neither image changes the size)", len(got), len(diffPre))}
	}
	head := got[:txLen]
	state := ""
	switch {
	case bytes.Equal(head, diffPre[:txLen]):
		state = "pre"
	case bytes.Equal(head, bytes.Repeat([]byte{'B'}, txLen)):
		state = "post"
	default:
		state = "torn(head)"
		violations = append(violations,
			"v1/f: transaction's range [0,100) is neither all-old nor all-new")
	}
	if confirmed && state == "pre" {
		violations = append(violations,
			"v1/f: commit was confirmed to the client but recovery reverted it")
	}
	// Everything outside the transaction's range must be the stable
	// previous version - in particular the co-owner's uncommitted 'C'
	// bytes must never reach committed storage.
	if i := bytes.IndexByte(got[txLen:], 'C'); i >= 0 {
		violations = append(violations,
			fmt.Sprintf("v1/f: co-owner's uncommitted byte committed at offset %d", txLen+i))
	}
	if !bytes.Equal(got[txLen:], diffPre[txLen:]) && bytes.IndexByte(got[txLen:], 'C') < 0 {
		violations = append(violations,
			"v1/f: bytes outside the transaction's range changed across its commit")
	}
	return state, violations
}

func (w *diffWL) cleanup(*harness) {
	// Retire the co-owner so its locks and working pages do not read as
	// residue.  After a crash the site restart already reaped it; the
	// error is then expected.
	if w.coOwner != nil {
		w.coOwner.Kill() //nolint:errcheck
		w.coOwner, w.coFile = nil, nil
	}
}

// ---------------------------------------------------------------------
// tpc: two storage sites plus a third coordinator-only site.

type tpcWL struct{}

func (*tpcWL) name() string    { return "tpc" }
func (*tpcWL) sites() int      { return 3 }
func (*tpcWL) paths() []string { return []string{"v1/f", "v2/f"} }

func (*tpcWL) setup(h *harness) error {
	p, err := h.sys.NewProcess(3)
	if err != nil {
		return err
	}
	fa, err := p.Create("v1/f")
	if err != nil {
		return err
	}
	defer fa.Close() //nolint:errcheck
	fb, err := p.Create("v2/f")
	if err != nil {
		return err
	}
	defer fb.Close() //nolint:errcheck
	if _, err := p.BeginTrans(); err != nil {
		return err
	}
	if _, err := fa.WriteAt(preImage, 0); err != nil {
		p.AbortTrans() //nolint:errcheck
		return err
	}
	if _, err := fb.WriteAt(preImage, 0); err != nil {
		p.AbortTrans() //nolint:errcheck
		return err
	}
	return p.EndTrans()
}

func (*tpcWL) run(h *harness) bool {
	p, err := h.sys.NewProcess(3)
	if err != nil {
		return false
	}
	fa, err := p.Open("v1/f")
	if err != nil {
		return false
	}
	fb, err := p.Open("v2/f")
	if err != nil {
		return false
	}
	if _, err := p.BeginTrans(); err != nil {
		return false
	}
	if _, err := fa.WriteAt(postImage, 0); err != nil {
		p.AbortTrans() //nolint:errcheck
		return false
	}
	if _, err := fb.WriteAt(postImage, 0); err != nil {
		p.AbortTrans() //nolint:errcheck
		return false
	}
	// An EndTrans failure is NOT aborted here: once the commit record
	// may exist, only the protocol (recovery, presumed abort) decides
	// the outcome; the audit checks both files agree with it.
	return p.EndTrans() == nil
}

func (*tpcWL) check(h *harness, p *core.Process, confirmed bool) (string, []string) {
	sa, va := checkAllOrNothing(p, "v1/f", preImage, postImage, confirmed)
	sb, vb := checkAllOrNothing(p, "v2/f", preImage, postImage, confirmed)
	violations := append(va, vb...)
	state := sa
	if sa != sb {
		state = fmt.Sprintf("split(%s/%s)", sa, sb)
		violations = append(violations, fmt.Sprintf(
			"cross-site atomicity torn: v1/f recovered %s but v2/f recovered %s", sa, sb))
	}
	return state, violations
}

func (*tpcWL) cleanup(*harness) {}

// ---------------------------------------------------------------------
// migrate: the transaction commits from a site it migrated to.

type migrateWL struct{}

func (*migrateWL) name() string    { return "migrate" }
func (*migrateWL) sites() int      { return 2 }
func (*migrateWL) paths() []string { return []string{"v1/f", "v2/f"} }

func (*migrateWL) setup(h *harness) error {
	p, err := h.sys.NewProcess(1)
	if err != nil {
		return err
	}
	if err := commitFile(p, "v1/f", preImage); err != nil {
		return err
	}
	return commitFile(p, "v2/f", preImage)
}

func (*migrateWL) run(h *harness) bool {
	p, err := h.sys.NewProcess(1)
	if err != nil {
		return false
	}
	f1, err := p.Open("v1/f")
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
	if _, err := f1.WriteAt(postImage, 0); err != nil {
		return abort()
	}
	// A member process forks to site 2, writes there, and exits (its
	// file list merges into the top-level process)...
	child, err := p.Fork(simnet.SiteID(2))
	if err != nil {
		return abort()
	}
	f2, err := child.Open("v2/f")
	if err != nil {
		return abort()
	}
	if _, err := f2.WriteAt(postImage, 0); err != nil {
		return abort()
	}
	if err := child.Exit(); err != nil {
		return abort()
	}
	// ...then the top-level process migrates to site 2 and commits from
	// there: the coordinator site is not the transaction's origin.
	if err := p.Migrate(simnet.SiteID(2)); err != nil {
		return abort()
	}
	return p.EndTrans() == nil
}

func (*migrateWL) check(h *harness, p *core.Process, confirmed bool) (string, []string) {
	sa, va := checkAllOrNothing(p, "v1/f", preImage, postImage, confirmed)
	sb, vb := checkAllOrNothing(p, "v2/f", preImage, postImage, confirmed)
	violations := append(va, vb...)
	state := sa
	if sa != sb {
		state = fmt.Sprintf("split(%s/%s)", sa, sb)
		violations = append(violations, fmt.Sprintf(
			"cross-site atomicity torn: v1/f recovered %s but v2/f recovered %s", sa, sb))
	}
	return state, violations
}

func (*migrateWL) cleanup(*harness) {}

// ---------------------------------------------------------------------
// readonly: two-phase commit where the remote participant only read.

type readonlyWL struct{}

func (*readonlyWL) name() string    { return "readonly" }
func (*readonlyWL) sites() int      { return 2 }
func (*readonlyWL) paths() []string { return []string{"v1/f", "v2/f"} }

func (*readonlyWL) configure(cfg *cluster.Config) { cfg.FastPaths = true }

func (*readonlyWL) setup(h *harness) error {
	p, err := h.sys.NewProcess(1)
	if err != nil {
		return err
	}
	if err := commitFile(p, "v1/f", preImage); err != nil {
		return err
	}
	return commitFile(p, "v2/f", preImage)
}

func (*readonlyWL) run(h *harness) bool {
	p, err := h.sys.NewProcess(1)
	if err != nil {
		return false
	}
	f1, err := p.Open("v1/f")
	if err != nil {
		return false
	}
	f2, err := p.Open("v2/f")
	if err != nil {
		return false
	}
	if _, err := p.BeginTrans(); err != nil {
		return false
	}
	if _, err := f1.WriteAt(postImage, 0); err != nil {
		p.AbortTrans() //nolint:errcheck
		return false
	}
	// The remote participant only takes a shared lock and reads: with
	// fast paths on it votes read-only at prepare time, forces no
	// prepare record, and receives no phase-two message.  Site 2's
	// sweep therefore learns zero crash points - the matrix itself is
	// the proof that the read-only voter performs no stable write.
	if err := f2.LockRange(0, 8, core.Shared); err != nil {
		p.AbortTrans() //nolint:errcheck
		return false
	}
	if _, err := f2.ReadAt(make([]byte, 8), 0); err != nil {
		p.AbortTrans() //nolint:errcheck
		return false
	}
	// As in tpc, an EndTrans failure is not aborted here: once the
	// commit record may exist only the protocol decides the outcome.
	return p.EndTrans() == nil
}

func (*readonlyWL) check(h *harness, p *core.Process, confirmed bool) (string, []string) {
	state, violations := checkAllOrNothing(p, "v1/f", preImage, postImage, confirmed)
	// The read-only file must be byte-identical to its baseline at
	// every crash point: a shared read never changes committed state.
	got, err := audit.ReadCommitted(p, "v2/f")
	if err != nil {
		violations = append(violations,
			fmt.Sprintf("v2/f: committed read failed after recovery: %v", err))
	} else if !bytes.Equal(got, preImage) {
		violations = append(violations,
			fmt.Sprintf("v2/f: read-only participant's file changed across commit (%s)",
				classify(got, preImage, postImage)))
	}
	return state, violations
}

func (*readonlyWL) cleanup(*harness) {}

// ---------------------------------------------------------------------
// onephase: single remote participant site, combined message.

type onephaseWL struct{}

func (*onephaseWL) name() string    { return "onephase" }
func (*onephaseWL) sites() int      { return 2 }
func (*onephaseWL) paths() []string { return []string{"v1/f"} }

func (*onephaseWL) configure(cfg *cluster.Config) { cfg.FastPaths = true }

func (*onephaseWL) setup(h *harness) error {
	p, err := h.sys.NewProcess(2)
	if err != nil {
		return err
	}
	return commitFile(p, "v1/f", preImage)
}

func (*onephaseWL) run(h *harness) bool {
	// The coordinator runs at site 2 but every touched file lives at
	// site 1: the combined prepare-and-commit message delegates the
	// commit point to site 1's prepare-record force, and the
	// coordinator log is never written.  A crash on either side of
	// that force must resolve from the record count alone (the
	// coordinator has nothing to answer a status query from).
	p, err := h.sys.NewProcess(2)
	if err != nil {
		return false
	}
	f, err := p.Open("v1/f")
	if err != nil {
		return false
	}
	if _, err := p.BeginTrans(); err != nil {
		return false
	}
	if _, err := f.WriteAt(postImage, 0); err != nil {
		p.AbortTrans() //nolint:errcheck
		return false
	}
	return p.EndTrans() == nil
}

func (*onephaseWL) check(h *harness, p *core.Process, confirmed bool) (string, []string) {
	return checkAllOrNothing(p, "v1/f", preImage, postImage, confirmed)
}

func (*onephaseWL) cleanup(*harness) {}

// ---------------------------------------------------------------------
// lease: sticky lock leases across the crash surface.

// lease2Image is the conflicting transaction's target state; it follows
// postImage, so the committed file must march pre -> post -> post2 and
// recovery may stop at any completed step but never between them.
var lease2Image = bytes.Repeat([]byte{'D'}, 2600)

type leaseWL struct {
	// confirmed2 records whether the conflicting (revoking) commit was
	// confirmed to its client on this replay.
	confirmed2 bool
}

func (*leaseWL) name() string    { return "lease" }
func (*leaseWL) sites() int      { return 2 }
func (*leaseWL) paths() []string { return []string{"v2/f"} }

func (*leaseWL) configure(cfg *cluster.Config) { cfg.LockLeases = true }

func (*leaseWL) setup(h *harness) error {
	// The setup commit runs from site 1 against site 2's file, so it
	// leaves site 2 holding a lease for site 1 before any fault is armed.
	p, err := h.sys.NewProcess(1)
	if err != nil {
		return err
	}
	return commitFile(p, "v2/f", preImage)
}

func (w *leaseWL) run(h *harness) bool {
	w.confirmed2 = false
	// Probed transaction: the implicit write hits site 1's cached lease,
	// skips the lock message, and site 2 materializes the descriptor.
	p, err := h.sys.NewProcess(1)
	if err != nil {
		return false
	}
	f, err := p.Open("v2/f")
	if err != nil {
		return false
	}
	if _, err := p.BeginTrans(); err != nil {
		return false
	}
	if _, err := f.WriteAt(postImage, 0); err != nil {
		p.AbortTrans() //nolint:errcheck
		return false
	}
	// As in tpc, an EndTrans failure is not aborted: once the commit
	// record may exist only the protocol decides the outcome.
	confirmed := p.EndTrans() == nil

	// Conflicting transaction at the storage site: its lock acquisition
	// must revoke site 1's lease before the grant.  Its own crash points
	// are part of the sweep; its outcome is audited separately.
	q, err := h.sys.NewProcess(2)
	if err != nil {
		return confirmed
	}
	g, err := q.Open("v2/f")
	if err != nil {
		return confirmed
	}
	if _, err := q.BeginTrans(); err != nil {
		return confirmed
	}
	if _, err := g.WriteAt(lease2Image, 0); err != nil {
		q.AbortTrans() //nolint:errcheck
		return confirmed
	}
	w.confirmed2 = q.EndTrans() == nil
	return confirmed
}

func (w *leaseWL) check(h *harness, p *core.Process, confirmed bool) (string, []string) {
	got, err := audit.ReadCommitted(p, "v2/f")
	if err != nil {
		return "unreadable", []string{fmt.Sprintf("v2/f: committed read failed after recovery: %v", err)}
	}
	var state string
	switch {
	case bytes.Equal(got, preImage):
		state = "pre"
	case bytes.Equal(got, postImage):
		state = "post"
	case bytes.Equal(got, lease2Image):
		state = "post2"
	default:
		state = fmt.Sprintf("torn(len=%d)", len(got))
	}
	var violations []string
	if state != "pre" && state != "post" && state != "post2" {
		violations = append(violations,
			fmt.Sprintf("v2/f: committed content matches none of the three images (%s)", state))
	}
	// The commits are serial, so confirmation is monotonic: the revoking
	// commit implies its state, the lease-hit commit implies at least its
	// own.
	if w.confirmed2 && state != "post2" {
		violations = append(violations,
			fmt.Sprintf("v2/f: revoking commit was confirmed but recovery kept %q", state))
	}
	if confirmed && state == "pre" {
		violations = append(violations,
			"v2/f: lease-hit commit was confirmed to the client but recovery reverted it")
	}
	return state, violations
}

func (*leaseWL) cleanup(*harness) {}

// ---------------------------------------------------------------------
// ownermove: an ownership move fires inside the probed commit, racing a
// follow-up commit from the file's old home site.

// move2Image is the racing transaction's target state; it follows
// postImage, so v1/f must march pre -> post -> post2.
var move2Image = bytes.Repeat([]byte{'E'}, 2600)

type ownermoveWL struct {
	// confirmed2 records whether the racing commit (from the old home)
	// was confirmed to its client on this replay.
	confirmed2 bool
}

func (*ownermoveWL) name() string    { return "ownermove" }
func (*ownermoveWL) sites() int      { return 2 }
func (*ownermoveWL) paths() []string { return []string{"v1/f", "v1/warm"} }

// configure turns placement on with aggressive knobs, so an ownership
// move fires after two remote accesses, deterministically inside the
// probed commit.
func (*ownermoveWL) configure(cfg *cluster.Config) {
	cfg.AdaptivePlacement = true
	cfg.PlacementMinAccesses = 2
	cfg.PlacementCooldown = 2
}

// sweepDisks adds the hosted v1 volume at site 2 - the disk the
// adoption writes land on.  setup's warm move creates it before any
// fault is armed.
func (*ownermoveWL) sweepDisks() []diskRef {
	return []diskRef{{Site: 1, Volume: "v1"}, {Site: 2, Volume: "v2"}, {Site: 2, Volume: "v1"}}
}

func (*ownermoveWL) setup(h *harness) error {
	p, err := h.sys.NewProcess(2)
	if err != nil {
		return err
	}
	// Warm move: three remote commits on v1/warm migrate it to site 2
	// (the decayed access mass crosses MinAccesses=2 on the third),
	// creating the hosted v1 volume there so its disk is part of the
	// sweep from the first armed write.
	if err := commitFile(p, "v1/warm", preImage); err != nil {
		return err
	}
	f, err := p.Open("v1/warm")
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if _, err := p.BeginTrans(); err != nil {
			return err
		}
		if _, err := f.WriteAt(preImage, 0); err != nil {
			return err
		}
		if err := p.EndTrans(); err != nil {
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if h.site(2).Volume("v1") == nil {
		return fmt.Errorf("ownermove setup: warm move did not create hosted v1 at site 2")
	}
	// The probed file: two committed remote accesses, one short of the
	// move threshold - the probed commit supplies the third.
	if err := commitFile(p, "v1/f", preImage); err != nil {
		return err
	}
	g, err := p.Open("v1/f")
	if err != nil {
		return err
	}
	if _, err := p.BeginTrans(); err != nil {
		return err
	}
	if _, err := g.WriteAt(preImage, 0); err != nil {
		return err
	}
	if err := p.EndTrans(); err != nil {
		return err
	}
	if err := g.Close(); err != nil {
		return err
	}
	if home, err := h.sys.Cluster().StorageSite("v1/f"); err != nil || home != 1 {
		return fmt.Errorf("ownermove setup: v1/f moved early (home %v, err %v)", home, err)
	}
	return nil
}

func (w *ownermoveWL) run(h *harness) bool {
	w.confirmed2 = false
	// Probed transaction from site 2: its commit is the second remote
	// access, so the post-commit sweep moves v1/f to site 2 inline -
	// the armed crash point can land anywhere inside commit or move.
	p, err := h.sys.NewProcess(2)
	if err != nil {
		return false
	}
	f, err := p.Open("v1/f")
	if err != nil {
		return false
	}
	if _, err := p.BeginTrans(); err != nil {
		return false
	}
	if _, err := f.WriteAt(postImage, 0); err != nil {
		p.AbortTrans() //nolint:errcheck
		return false
	}
	confirmed := p.EndTrans() == nil

	// Racing commit from the old home site: it resolves the file's
	// current home (waiting out the fence if the move is mid-flight)
	// and must land exactly once, wherever the bytes now live.
	q, err := h.sys.NewProcess(1)
	if err != nil {
		return confirmed
	}
	g, err := q.Open("v1/f")
	if err != nil {
		return confirmed
	}
	if _, err := q.BeginTrans(); err != nil {
		return confirmed
	}
	if _, err := g.WriteAt(move2Image, 0); err != nil {
		q.AbortTrans() //nolint:errcheck
		return confirmed
	}
	w.confirmed2 = q.EndTrans() == nil
	return confirmed
}

func (w *ownermoveWL) check(h *harness, _ *core.Process, confirmed bool) (string, []string) {
	// Heal pass: restart every site so each runs its foreign-file purge,
	// then assert single-primary convergence.  (Recovery already
	// restarted the crashed sites; this makes the garbage-collection
	// half of the invariant observable at every crash point.)  The
	// restarts reap the audit's reader process, so the content reads
	// go through a fresh one.
	for i := 1; i <= h.n; i++ {
		s := h.site(i)
		if s.Up() {
			s.Crash()
		}
		if err := s.Restart(); err != nil {
			return "unrecoverable", []string{fmt.Sprintf("heal restart site %d: %v", i, err)}
		}
	}
	h.drain()
	violations := audit.SinglePrimary(h.sys, w.paths(), nil).Violations
	p, err := h.sys.NewProcess(1)
	if err != nil {
		return "unreadable", append(violations, fmt.Sprintf("audit process after heal: %v", err))
	}

	// Content: pre -> post -> post2, no torn states, confirmations
	// monotone.
	got, err := audit.ReadCommitted(p, "v1/f")
	if err != nil {
		return "unreadable", append(violations, fmt.Sprintf("v1/f: committed read failed after recovery: %v", err))
	}
	var state string
	switch {
	case bytes.Equal(got, preImage):
		state = "pre"
	case bytes.Equal(got, postImage):
		state = "post"
	case bytes.Equal(got, move2Image):
		state = "post2"
	default:
		state = fmt.Sprintf("torn(len=%d)", len(got))
	}
	if state != "pre" && state != "post" && state != "post2" {
		violations = append(violations,
			fmt.Sprintf("v1/f: committed content matches none of the three images (%s)", state))
	}
	if w.confirmed2 && state != "post2" {
		violations = append(violations,
			fmt.Sprintf("v1/f: racing commit was confirmed but recovery kept %q", state))
	}
	if confirmed && state == "pre" {
		violations = append(violations,
			"v1/f: moving commit was confirmed to the client but recovery reverted it")
	}
	if warm, err := audit.ReadCommitted(p, "v1/warm"); err != nil || !bytes.Equal(warm, preImage) {
		violations = append(violations,
			fmt.Sprintf("v1/warm: committed bytes damaged by the sweep (err=%v len=%d)", err, len(warm)))
	}
	return state, violations
}

func (*ownermoveWL) cleanup(*harness) {}
