package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stats"
)

// RepeatRow is one configuration of the skewed repeated-access workload:
// a serial client at site 1 hammering one hot remote file at site 2,
// each transaction touching an 8-byte record whose offset cycles through
// a small set.  Without leases every transaction pays the lock round
// trip (the section 5.1 cache is per-transaction, and each transaction
// is new); with sticky leases the storage site retains the released
// coverage for site 1, escalates to a whole-file lease under the dense
// access, and the steady state sends zero lock messages - the experiment
// E20 win condition is LockMsgsPerTxn approaching zero.
type RepeatRow struct {
	Case           string // "leases off" / "leases on"
	Leases         bool
	Txns           int
	Committed      int64
	Aborted        int64
	LockMsgs       int64
	LockMsgsPerTxn float64
	LeaseHits      int64
	LeaseRevokes   int64
	Escalations    int64
	Wall           time.Duration
	Counters       stats.Snapshot
}

// RepeatAccess runs the repeated-access workload once.  The client is
// serial and fault-free, so every counter is deterministic - the CI
// bench gate diffs LockMsgsPerTxn against the committed BENCH_PR10.json.
func RepeatAccess(txns int, leases bool) (RepeatRow, error) {
	if txns <= 0 {
		return RepeatRow{}, fmt.Errorf("bench: txns %d out of range", txns)
	}
	cfg := cluster.Config{
		SyncPhase2:    true,
		DiskSyncDelay: DefaultDiskSyncDelay,
		LockLeases:    leases,
		// The whole run must fit inside one lease term for the steady
		// state to show; the workload is seconds at most.
		LeaseTTL: time.Hour,
	}
	sys := core.NewSystem(cfg)
	sys.AddSite(1)
	sys.AddSite(2)
	if err := sys.AddVolume(1, "va"); err != nil {
		return RepeatRow{}, err
	}
	if err := sys.AddVolume(2, "vb"); err != nil {
		return RepeatRow{}, err
	}
	defer sys.Cluster().Shutdown()

	setup, err := sys.NewProcess(1)
	if err != nil {
		return RepeatRow{}, err
	}
	f, err := setup.Create("vb/hot")
	if err != nil {
		return RepeatRow{}, err
	}
	if _, err := f.WriteAt(make([]byte, 1024), 0); err != nil {
		return RepeatRow{}, err
	}
	if err := f.Sync(); err != nil {
		return RepeatRow{}, err
	}
	if err := f.Close(); err != nil {
		return RepeatRow{}, err
	}

	p, err := sys.NewProcess(1)
	if err != nil {
		return RepeatRow{}, err
	}
	hot, err := p.Open("vb/hot")
	if err != nil {
		return RepeatRow{}, err
	}

	row := RepeatRow{Case: "leases off", Leases: leases, Txns: txns}
	if leases {
		row.Case = "leases on"
	}
	before := sys.Stats().Snapshot()
	start := time.Now()
	for i := 0; i < txns; i++ {
		// Skewed repeated access: the offset cycles through 16 records
		// of the one hot file.  Implicit locking acquires the record
		// lock at write time (section 3.1) - the path leases shortcut.
		off := int64((i % 16) * 8)
		if _, err := p.BeginTrans(); err != nil {
			return row, err
		}
		if _, err := hot.WriteAt([]byte(fmt.Sprintf("%08d", i)), off); err != nil {
			p.AbortTrans() //nolint:errcheck
			row.Aborted++
			continue
		}
		if err := p.EndTrans(); err != nil {
			row.Aborted++
			continue
		}
		row.Committed++
	}
	row.Wall = time.Since(start)

	d := sys.Stats().Snapshot().Sub(before)
	row.LockMsgs = d.Get(stats.LockMsgs)
	row.LeaseHits = d.Get(stats.LeaseHits)
	row.LeaseRevokes = d.Get(stats.LeaseRevokes)
	row.Escalations = d.Get(stats.LeaseEscalations)
	row.Counters = d
	if row.Committed > 0 {
		row.LockMsgsPerTxn = float64(row.LockMsgs) / float64(row.Committed)
	}
	return row, nil
}

// RepeatPair runs the repeated-access workload leases off then on - the
// locusbench "repeat" experiment and a section of BENCH_PR10.json.
func RepeatPair(txns int) ([]RepeatRow, error) {
	var rows []RepeatRow
	for _, leases := range []bool{false, true} {
		row, err := RepeatAccess(txns, leases)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
