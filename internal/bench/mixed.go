package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stats"
)

// MixedRow is one configuration of the mixed read/write workload: a
// serial client at site 1 driving transactions over two volumes (va at
// site 1, vb at site 2), with readShare percent of them pure reads.
// The writes alternate between a single-site shape (one-phase commit
// candidate) and a write-plus-remote-read shape (read-only vote
// candidate), so every fast path shows up in the counters.  The client
// is serial and the fault-free schedule fixed, so every I/O counter is
// deterministic - the CI bench smoke diffs ForcedPerTxn against the
// committed BENCH_PR10.json.
type MixedRow struct {
	Case         string // "fast-paths off" / "fast-paths on"
	FastPaths    bool
	ReadShare    int // percent of transactions that only read
	Txns         int
	Committed    int64
	Aborted      int64
	Wall         time.Duration
	P50          time.Duration // per-transaction wall latency
	P99          time.Duration
	ForcedIOs    int64   // synchronous disk forces during the run
	ForcedPerTxn float64 // forces per committed transaction
	CoordWrites  int64   // coordinator-log forces
	PrepWrites   int64   // prepare-log forces
	ReadOnly     int64   // VoteReadOnly answers observed
	OnePhase     int64   // one-phase commits taken
	Counters     stats.Snapshot
}

// MixedCommit runs the mixed workload once.  txns transactions execute
// serially; readShare (0-100) selects the read fraction with an
// even deterministic interleave.
func MixedCommit(txns, readShare int, fastPaths bool) (MixedRow, error) {
	if readShare < 0 || readShare > 100 {
		return MixedRow{}, fmt.Errorf("bench: read share %d%% out of range", readShare)
	}
	cfg := cluster.Config{
		SyncPhase2:    true,
		FastPaths:     fastPaths,
		DiskSyncDelay: DefaultDiskSyncDelay,
	}
	sys := core.NewSystem(cfg)
	sys.AddSite(1)
	sys.AddSite(2)
	if err := sys.AddVolume(1, "va"); err != nil {
		return MixedRow{}, err
	}
	if err := sys.AddVolume(2, "vb"); err != nil {
		return MixedRow{}, err
	}
	defer sys.Cluster().Shutdown()

	setup, err := sys.NewProcess(1)
	if err != nil {
		return MixedRow{}, err
	}
	const pageSize = 1024
	for _, path := range []string{"va/data", "vb/data"} {
		f, err := setup.Create(path)
		if err != nil {
			return MixedRow{}, err
		}
		if _, err := f.WriteAt(make([]byte, pageSize), 0); err != nil {
			return MixedRow{}, err
		}
		if err := f.Sync(); err != nil {
			return MixedRow{}, err
		}
		if err := f.Close(); err != nil {
			return MixedRow{}, err
		}
	}

	p, err := sys.NewProcess(1)
	if err != nil {
		return MixedRow{}, err
	}
	local, err := p.Open("va/data")
	if err != nil {
		return MixedRow{}, err
	}
	remote, err := p.Open("vb/data")
	if err != nil {
		return MixedRow{}, err
	}

	row := MixedRow{
		Case: "fast-paths off", FastPaths: fastPaths,
		ReadShare: readShare, Txns: txns,
	}
	if fastPaths {
		row.Case = "fast-paths on"
	}
	before := sys.Stats().Snapshot()
	lats := make([]time.Duration, 0, txns)
	buf := make([]byte, 8)
	writes := 0
	start := time.Now()
	for i := 0; i < txns; i++ {
		// Bresenham interleave: transaction i reads iff the running
		// count of reads is behind the requested share.
		isRead := (i+1)*readShare/100 > i*readShare/100
		t0 := time.Now()
		if _, err := p.BeginTrans(); err != nil {
			return row, err
		}
		ok := true
		if isRead {
			// Pure read across both sites: every participant votes
			// read-only, so the fast-path run skips the commit force.
			for _, f := range []*core.File{local, remote} {
				if err := f.LockRange(0, 8, core.Shared); err != nil {
					ok = false
					break
				}
				if _, err := f.ReadAt(buf, 0); err != nil {
					ok = false
					break
				}
			}
		} else if writes++; writes%2 == 1 {
			// Single-site write: the one-phase commit candidate.
			if err := local.LockRange(0, 8, core.Exclusive); err != nil {
				ok = false
			} else if _, err := local.WriteAt([]byte(fmt.Sprintf("%08d", i)), 0); err != nil {
				ok = false
			}
		} else {
			// Write at site 1 plus a shared read at site 2: the remote
			// participant is the read-only vote candidate.
			if err := local.LockRange(0, 8, core.Exclusive); err != nil {
				ok = false
			} else if _, err := local.WriteAt([]byte(fmt.Sprintf("%08d", i)), 0); err != nil {
				ok = false
			} else if err := remote.LockRange(0, 8, core.Shared); err != nil {
				ok = false
			} else if _, err := remote.ReadAt(buf, 0); err != nil {
				ok = false
			}
		}
		if !ok {
			p.AbortTrans() //nolint:errcheck
			row.Aborted++
			continue
		}
		if err := p.EndTrans(); err != nil {
			row.Aborted++
			continue
		}
		row.Committed++
		lats = append(lats, time.Since(t0))
	}
	row.Wall = time.Since(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(p*float64(len(lats)-1))]
	}
	row.P50, row.P99 = pct(0.50), pct(0.99)

	d := sys.Stats().Snapshot().Sub(before)
	row.ForcedIOs = d.Get(stats.ForcedIOs)
	row.CoordWrites = d.Get(stats.CoordLogWrites)
	row.PrepWrites = d.Get(stats.PrepareLogWrites)
	row.ReadOnly = d.Get(stats.ReadOnlyVotes)
	row.OnePhase = d.Get(stats.OnePhaseCommits)
	row.Counters = d
	if row.Committed > 0 {
		row.ForcedPerTxn = float64(row.ForcedIOs) / float64(row.Committed)
	}
	return row, nil
}

// MixedSweep runs the mixed workload at each read share, fast paths off
// then on - the locusbench "mixed" experiment and a section of
// BENCH_PR10.json.
func MixedSweep(txns int, shares []int) ([]MixedRow, error) {
	var rows []MixedRow
	for _, share := range shares {
		for _, fast := range []bool{false, true} {
			row, err := MixedCommit(txns, share, fast)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
