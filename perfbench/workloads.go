package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// clients is the closed-loop client count of every workload: each
// simulated client sends its next transaction only after EndTrans
// returned.
const clients = 2

// pageSize is the paper's 1 KB file page (the cluster default).
const pageSize = 1024

// errCheck marks a correctness violation, as opposed to an operation
// that failed.
var errCheck = errors.New("correctness check failed")

// vax gives the latencies every workload runs under: 26 ms per forced
// disk write and 8 ms per one-way message.
var vax = costmodel.Vax750()

// workload is one benchmark workload.  A value holds the inputs the seed
// generated plus the acknowledgements of one round; newRound gives a
// fresh value over the same inputs.
type workload interface {
	// config returns the workload's optional-path flags; everything
	// else is the zero-value cluster.Config.
	config() cluster.Config
	// build adds the sites, volumes and files (the timed set-up).
	build(sys *core.System) error
	// clientSite is the site client c runs at.
	clientSite(c int) simnet.SiteID
	// run drives client c's transactions through p.
	run(p *core.Process, c int, cl *client) error
	// verify checks the recovered system, read through p, against the
	// acknowledged transactions.
	verify(sys *core.System, p *core.Process) error
	// newRound returns a workload over the same inputs with no
	// acknowledgements.
	newRound() workload
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"tp1-local", "readmostly-2pc", "skew-allflags"}

// newWorkload generates the named workload's inputs from seed, with
// txns transactions per client.
func newWorkload(name string, seed int64, txns int) (workload, error) {
	switch name {
	case "tp1-local":
		return newTP1(seed, txns), nil
	case "readmostly-2pc":
		return newReadMostly(seed, txns), nil
	case "skew-allflags":
		return newSkew(seed, txns), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// newInputs generates the named workload's input sets from seed.
func newInputs(name string, seed int64) ([]workload, error) {
	rng := rand.New(rand.NewSource(seed))
	ws := make([]workload, inputSets)
	for i := range ws {
		var err error
		if ws[i], err = newWorkload(name, rng.Int63(), txnsPerClient); err != nil {
			return nil, err
		}
	}
	return ws, nil
}

// createFile creates path holding init and commits it.
func createFile(p *core.Process, path string, init []byte) error {
	f, err := p.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(init, 0); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// readFile reads n bytes of path from offset 0 outside any transaction.
func readFile(p *core.Process, path string, n int) ([]byte, error) {
	f, err := p.Open(path)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	got, err := f.ReadAt(buf, 0)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if got != n {
		return nil, fmt.Errorf("read %s: %d of %d bytes", path, got, n)
	}
	return buf, f.Close()
}

// ---- tp1-local ----

const (
	tpAccounts  = 4096
	tpBranches  = 4
	tpRecBytes  = 8
	tpInitial   = 1_000_000
	tpMaxAmount = 100
	tpPath      = "bank/accounts"
	// tpBranchOff is the branch page, after the 32 pages of accounts.
	tpBranchOff = tpAccounts * tpRecBytes
	tpFileBytes = tpBranchOff + pageSize
)

// transfer moves amount from one account to another through a branch,
// whose record sums the amounts moved through it.
type transfer struct {
	branch, from, to, amount int
}

// tp1 is TP1 debit-credit at one site: each transfer locks its branch
// record, then its two accounts in ascending order, and reads and
// writes all three.  Four branch records share one page, so concurrent
// transfers wait on the hot branches and commit that page by
// differencing.
type tp1 struct {
	transfers [clients][]transfer
	acked     [clients][]int // indices of committed transfers
}

func newTP1(seed int64, txns int) *tp1 {
	rng := rand.New(rand.NewSource(seed))
	w := &tp1{}
	for c := range w.transfers {
		w.transfers[c] = make([]transfer, txns)
		for i := range w.transfers[c] {
			b := rng.Intn(tpBranches)
			from := b*(tpAccounts/tpBranches) + rng.Intn(tpAccounts/tpBranches)
			to := rng.Intn(tpAccounts - 1)
			if to >= from {
				to++
			}
			w.transfers[c][i] = transfer{b, from, to, 1 + rng.Intn(tpMaxAmount)}
		}
	}
	return w
}

func (w *tp1) newRound() workload {
	r := &tp1{transfers: w.transfers}
	for c := range r.acked {
		r.acked[c] = make([]int, 0, len(w.transfers[c]))
	}
	return r
}

func (w *tp1) config() cluster.Config { return cluster.Config{} }

func (w *tp1) build(sys *core.System) error {
	sys.AddSite(1)
	if err := sys.AddVolume(1, "bank"); err != nil {
		return err
	}
	p, err := sys.NewProcess(1)
	if err != nil {
		return err
	}
	init := make([]byte, tpFileBytes)
	for a := 0; a < tpAccounts; a++ {
		binary.LittleEndian.PutUint64(init[a*tpRecBytes:], tpInitial)
	}
	return createFile(p, tpPath, init)
}

func (w *tp1) clientSite(int) simnet.SiteID { return 1 }

func (w *tp1) run(p *core.Process, c int, cl *client) error {
	f, err := p.Open(tpPath)
	if err != nil {
		return err
	}
	var buf [3 * tpRecBytes]byte
	branch, from, to := buf[:tpRecBytes], buf[tpRecBytes:2*tpRecBytes], buf[2*tpRecBytes:]
	for i, t := range w.transfers[c] {
		offBranch := int64(tpBranchOff + t.branch*tpRecBytes)
		offFrom, offTo := int64(t.from*tpRecBytes), int64(t.to*tpRecBytes)
		lo, hi := offFrom, offTo
		if lo > hi {
			lo, hi = hi, lo
		}
		ok := cl.txn(p, func() error {
			// Branch first, then accounts ascending: every transfer
			// takes its locks in one global order, so none deadlocks.
			for _, off := range [3]int64{offBranch, lo, hi} {
				if err := cl.lock(f, off, tpRecBytes, core.Exclusive); err != nil {
					return err
				}
			}
			for _, r := range [3]struct {
				buf []byte
				off int64
			}{{branch, offBranch}, {from, offFrom}, {to, offTo}} {
				if err := cl.read(f, r.buf, r.off); err != nil {
					return err
				}
			}
			amt := uint64(t.amount)
			binary.LittleEndian.PutUint64(branch, binary.LittleEndian.Uint64(branch)+amt)
			binary.LittleEndian.PutUint64(from, binary.LittleEndian.Uint64(from)-amt)
			binary.LittleEndian.PutUint64(to, binary.LittleEndian.Uint64(to)+amt)
			if err := cl.write(f, branch, offBranch); err != nil {
				return err
			}
			if err := cl.write(f, from, offFrom); err != nil {
				return err
			}
			return cl.write(f, to, offTo)
		})
		if ok {
			w.acked[c] = append(w.acked[c], i)
		}
	}
	return f.Close()
}

// expected replays the acknowledged transfers over the initial balances:
// accounts first, then the branch totals.
func (w *tp1) expected() []int64 {
	bal := make([]int64, tpAccounts+tpBranches)
	for a := 0; a < tpAccounts; a++ {
		bal[a] = tpInitial
	}
	for c := range w.acked {
		for _, i := range w.acked[c] {
			t := w.transfers[c][i]
			bal[t.from] -= int64(t.amount)
			bal[t.to] += int64(t.amount)
			bal[tpAccounts+t.branch] += int64(t.amount)
		}
	}
	return bal
}

func (w *tp1) verify(_ *core.System, p *core.Process) error {
	data, err := readFile(p, tpPath, tpBranchOff+tpBranches*tpRecBytes)
	if err != nil {
		return err
	}
	var total int64
	for i, want := range w.expected() {
		got := int64(binary.LittleEndian.Uint64(data[i*tpRecBytes:]))
		if got != want {
			what := fmt.Sprintf("account %d", i)
			if i >= tpAccounts {
				what = fmt.Sprintf("branch %d", i-tpAccounts)
			}
			return fmt.Errorf("%w: %s holds %d, replay of acknowledged transfers gives %d", errCheck, what, got, want)
		}
		if i < tpAccounts {
			total += got
		}
	}
	if total != tpAccounts*tpInitial {
		return fmt.Errorf("%w: accounts total %d, want %d", errCheck, total, tpAccounts*tpInitial)
	}
	return nil
}

// ---- readmostly-2pc ----

const (
	rmFiles    = 3
	rmRecords  = 512
	rmRecBytes = 64
	rmWritePct = 20
)

func rmPath(file int) string { return fmt.Sprintf("v%d/records", file+1) }

// rmOp is one read-mostly transaction: two records in two different
// files, read under shared locks or rewritten under exclusive ones.
type rmOp struct {
	files [2]int // ascending: the lock order
	recs  [2]int
	write bool
}

// readMostly runs three sites with one volume and one file each.
// Clients at sites 1 and 2 touch two of the three files per
// transaction; one in five transactions writes.
type readMostly struct {
	ops [clients][]rmOp
	// acked holds the highest version of each record a client's
	// acknowledged writes produced.
	acked [clients][rmFiles][rmRecords]uint32
}

func newReadMostly(seed int64, txns int) *readMostly {
	rng := rand.New(rand.NewSource(seed))
	w := &readMostly{}
	for c := range w.ops {
		w.ops[c] = make([]rmOp, txns)
		for i := range w.ops[c] {
			skip := rng.Intn(rmFiles) // the file this transaction leaves out
			op := rmOp{write: rng.Intn(100) < rmWritePct}
			n := 0
			for f := 0; f < rmFiles; f++ {
				if f != skip {
					op.files[n] = f
					op.recs[n] = rng.Intn(rmRecords)
					n++
				}
			}
			w.ops[c][i] = op
		}
	}
	return w
}

func (w *readMostly) newRound() workload { return &readMostly{ops: w.ops} }

func (w *readMostly) config() cluster.Config { return cluster.Config{} }

// encodeRecord fills rec with a self-describing record: its file and
// index, its version and writer, and a body derived from all four.
func encodeRecord(rec []byte, file, idx int, version uint32, writer byte) {
	binary.LittleEndian.PutUint16(rec[0:], uint16(file))
	binary.LittleEndian.PutUint16(rec[2:], uint16(idx))
	binary.LittleEndian.PutUint32(rec[4:], version)
	rec[8] = writer
	for i := 9; i < len(rec); i++ {
		rec[i] = byte(int(version)*7 + int(writer)*13 + idx + i)
	}
}

// decodeRecord checks that rec is a well-formed record of (file, idx)
// and returns its version.
func decodeRecord(rec []byte, file, idx int) (uint32, error) {
	version := binary.LittleEndian.Uint32(rec[4:])
	var want [rmRecBytes]byte
	encodeRecord(want[:], file, idx, version, rec[8])
	if !bytes.Equal(rec, want[:]) {
		return 0, fmt.Errorf("%w: %s record %d is malformed: % x", errCheck, rmPath(file), idx, rec[:12])
	}
	return version, nil
}

func (w *readMostly) build(sys *core.System) error {
	for f := 0; f < rmFiles; f++ {
		sys.AddSite(simnet.SiteID(f + 1))
		if err := sys.AddVolume(simnet.SiteID(f+1), fmt.Sprintf("v%d", f+1)); err != nil {
			return err
		}
	}
	for f := 0; f < rmFiles; f++ {
		p, err := sys.NewProcess(simnet.SiteID(f + 1))
		if err != nil {
			return err
		}
		init := make([]byte, rmRecords*rmRecBytes)
		for r := 0; r < rmRecords; r++ {
			encodeRecord(init[r*rmRecBytes:(r+1)*rmRecBytes], f, r, 0, 0)
		}
		if err := createFile(p, rmPath(f), init); err != nil {
			return err
		}
	}
	return nil
}

func (w *readMostly) clientSite(c int) simnet.SiteID { return simnet.SiteID(c + 1) }

func (w *readMostly) run(p *core.Process, c int, cl *client) error {
	var files [rmFiles]*core.File
	for f := range files {
		var err error
		if files[f], err = p.Open(rmPath(f)); err != nil {
			return err
		}
	}
	var buf [2][rmRecBytes]byte
	var versions [2]uint32
	for _, op := range w.ops[c] {
		mode := core.Shared
		if op.write {
			mode = core.Exclusive
		}
		ok := cl.txn(p, func() error {
			for k := 0; k < 2; k++ {
				f, off := files[op.files[k]], int64(op.recs[k]*rmRecBytes)
				if err := cl.lock(f, off, rmRecBytes, mode); err != nil {
					return err
				}
				if err := cl.read(f, buf[k][:], off); err != nil {
					return err
				}
				v, err := decodeRecord(buf[k][:], op.files[k], op.recs[k])
				if err != nil {
					cl.violation = err
					return err
				}
				if !op.write {
					continue
				}
				// The exclusive lock makes this read the latest committed
				// version, so versions order the writes of each record.
				versions[k] = v + 1
				encodeRecord(buf[k][:], op.files[k], op.recs[k], versions[k], byte(c+1))
				if err := cl.write(f, buf[k][:], off); err != nil {
					return err
				}
			}
			return nil
		})
		if ok && op.write {
			for k := 0; k < 2; k++ {
				if a := &w.acked[c][op.files[k]][op.recs[k]]; versions[k] > *a {
					*a = versions[k]
				}
			}
		}
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func (w *readMostly) verify(_ *core.System, p *core.Process) error {
	for f := 0; f < rmFiles; f++ {
		data, err := readFile(p, rmPath(f), rmRecords*rmRecBytes)
		if err != nil {
			return err
		}
		for r := 0; r < rmRecords; r++ {
			v, err := decodeRecord(data[r*rmRecBytes:(r+1)*rmRecBytes], f, r)
			if err != nil {
				return err
			}
			want := w.acked[0][f][r]
			if w.acked[1][f][r] > want {
				want = w.acked[1][f][r]
			}
			if v != want {
				return fmt.Errorf("%w: %s record %d at version %d, last acknowledged write was version %d", errCheck, rmPath(f), r, v, want)
			}
		}
	}
	return nil
}

// ---- skew-allflags ----

const (
	skFiles = 32
	skZipfS = 1.2
	skBytes = 8
)

func skPath(file int) string { return fmt.Sprintf("va/f%02d", file) }

// skew puts 32 one-page files at site 1 and runs its clients at sites 2
// and 3, each picking files by its own Zipfian rank order (the two hot
// sets are disjoint) and writing its own 8-byte slot, locked implicitly
// by the write.  Group commit, fast paths, lock leases and adaptive
// placement are all on with their default knobs.
type skew struct {
	picks [clients][]int // file per transaction
	// acked holds the highest acknowledged sequence number per
	// (client, file); zero means none.
	acked [clients][skFiles]uint64
}

func newSkew(seed int64, txns int) *skew {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, skZipfS, 1, skFiles-1)
	w := &skew{}
	for c := range w.picks {
		rot := c * skFiles / clients
		w.picks[c] = make([]int, txns)
		for i := range w.picks[c] {
			w.picks[c][i] = (int(zipf.Uint64()) + rot) % skFiles
		}
	}
	return w
}

func (w *skew) newRound() workload { return &skew{picks: w.picks} }

func (w *skew) config() cluster.Config {
	return cluster.Config{
		// A log record lingers at most one disk force for companions.
		GroupCommitMaxDelay: vax.DiskWriteTime,
		FastPaths:           true,
		LockLeases:          true,
		AdaptivePlacement:   true,
	}
}

func (w *skew) build(sys *core.System) error {
	for i, vol := range []string{"va", "vb", "vc"} {
		sys.AddSite(simnet.SiteID(i + 1))
		if err := sys.AddVolume(simnet.SiteID(i+1), vol); err != nil {
			return err
		}
	}
	p, err := sys.NewProcess(1)
	if err != nil {
		return err
	}
	for f := 0; f < skFiles; f++ {
		if err := createFile(p, skPath(f), make([]byte, pageSize)); err != nil {
			return err
		}
	}
	return nil
}

func (w *skew) clientSite(c int) simnet.SiteID { return simnet.SiteID(c + 2) }

func (w *skew) run(p *core.Process, c int, cl *client) error {
	var files [skFiles]*core.File
	var buf [skBytes]byte
	off := int64(c * skBytes)
	for i, file := range w.picks[c] {
		f := files[file]
		if f == nil {
			var err error
			if f, err = p.Open(skPath(file)); err != nil {
				return err
			}
			files[file] = f
		}
		seq := uint64(i + 1)
		binary.LittleEndian.PutUint64(buf[:], seq)
		// The write takes its exclusive lock implicitly.
		ok := cl.txn(p, func() error { return cl.write(f, buf[:], off) })
		if ok {
			w.acked[c][file] = seq
		}
	}
	for _, f := range files {
		if f != nil {
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *skew) verify(sys *core.System, p *core.Process) error {
	cl := sys.Cluster()
	for f := 0; f < skFiles; f++ {
		path := skPath(f)
		home, err := cl.StorageSite(path)
		if err != nil {
			return fmt.Errorf("%w: %s has no storage site: %v", errCheck, path, err)
		}
		var holders []simnet.SiteID
		for _, id := range cl.Sites() {
			has, err := cl.Site(id).HasLocalFile("va", strings.TrimPrefix(path, "va/"))
			if err != nil {
				return err
			}
			if has {
				holders = append(holders, id)
			}
		}
		if len(holders) != 1 || holders[0] != home {
			return fmt.Errorf("%w: %s has primary copies at %v, namespace says %v", errCheck, path, holders, home)
		}
		data, err := readFile(p, path, clients*skBytes)
		if err != nil {
			return err
		}
		for c := 0; c < clients; c++ {
			got := binary.LittleEndian.Uint64(data[c*skBytes:])
			if want := w.acked[c][f]; got != want {
				return fmt.Errorf("%w: %s slot of client %d holds sequence %d, last acknowledged is %d", errCheck, path, c, got, want)
			}
		}
	}
	return nil
}

// ---- crash and recovery ----

// recoverAll crashes every site, which drops each disk's unflushed
// pages, restarts them all and drains recovery: in-doubt participants
// resolved, pending phase two delivered, placement operations finished.
// Restarts repeat while ownership adoptions land during one, as the
// chaos harness's final quiesce does.
func recoverAll(sys *core.System, clk vtime.Clock) error {
	cl := sys.Cluster()
	for round := 0; round < 5; round++ {
		adopts := sys.Stats().Get(stats.OwnerAdopts)
		for _, id := range cl.Sites() {
			cl.Site(id).Crash()
		}
		for _, id := range cl.Sites() {
			if err := cl.Site(id).Restart(); err != nil {
				return fmt.Errorf("restart site %d: %w", id, err)
			}
		}
		deadline := clk.Now().Add(time.Minute)
		for {
			pending := 0
			for _, id := range cl.Sites() {
				s := cl.Site(id)
				n, err := s.ResolveInDoubt()
				if err != nil {
					return fmt.Errorf("resolve in doubt at site %d: %w", id, err)
				}
				pending += n + s.PlacementInFlight()
				if coord, err := s.Coordinator(); err == nil {
					coord.RetryPending()
					pending += coord.PendingCount()
				}
			}
			if pending == 0 {
				break
			}
			if clk.Now().After(deadline) {
				return fmt.Errorf("%w: recovery left %d operations pending", errCheck, pending)
			}
			clk.Sleep(5 * time.Millisecond)
		}
		if sys.Stats().Get(stats.OwnerAdopts) == adopts {
			return nil
		}
	}
	return fmt.Errorf("%w: ownership adoptions kept landing across restarts", errCheck)
}
