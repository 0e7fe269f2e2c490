package audit

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lockmgr"
	"repro/internal/simnet"
	"repro/internal/tpc"
)

// newCluster builds sites 1 and 2 (volumes v1 and v2) and commits one
// two-site transaction over v1/f and v2/f from site 1, so every check
// has real state to scan.  Phase two is synchronous: when EndTrans
// returns, nothing is left to resolve.
func newCluster(t *testing.T, cfg cluster.Config) *core.System {
	t.Helper()
	cfg.SyncPhase2 = true
	cfg.LockWaitTimeout = 2 * time.Second
	cfg.Net = simnet.Config{Seed: 7}
	sys := core.NewSystem(cfg)
	t.Cleanup(sys.Cluster().Shutdown)
	for i := 1; i <= 2; i++ {
		id := simnet.SiteID(i)
		sys.AddSite(id)
		if err := sys.AddVolume(id, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := sys.NewProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"v1/f", "v2/f"} {
		f, err := p.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("committed"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// commitFrom commits data into path from a fresh process at site,
// creating the file first when create is set.
func commitFrom(sys *core.System, site simnet.SiteID, path string, data []byte, create bool) error {
	p, err := sys.NewProcess(site)
	if err != nil {
		return err
	}
	open := p.Open
	if create {
		open = p.Create
	}
	f, err := open(path)
	if err != nil {
		return err
	}
	defer f.Close() //nolint:errcheck // the commit below reports the outcome
	if _, err := p.BeginTrans(); err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		p.AbortTrans() //nolint:errcheck // best effort: the write error is the result
		return err
	}
	return p.EndTrans()
}

// placementCluster is newCluster with adaptive placement tuned so a
// file moves to site 2 on its third committed access from there.
func placementCluster(t *testing.T) *core.System {
	return newCluster(t, cluster.Config{
		AdaptivePlacement:    true,
		PlacementMinAccesses: 2,
		PlacementCooldown:    2,
	})
}

// warmMove creates v1/hot from site 2 and commits it once more, one
// access short of the move; moveCommit is the third, moving commit.
func warmMove(sys *core.System) error {
	if err := commitFrom(sys, 2, "v1/hot", []byte("warm"), true); err != nil {
		return err
	}
	return commitFrom(sys, 2, "v1/hot", []byte("warm"), false)
}

func moveCommit(sys *core.System) error {
	return commitFrom(sys, 2, "v1/hot", []byte("moved"), false)
}

// interruptedMove leaves v1/hot with a local copy at both sites: the
// move to site 2 commits (the catalog names site 2) but a crash of
// site 1's disk cuts the source reclaim short, so site 1 keeps its
// directory entry - the state the restart purge exists to repair.  The
// reclaim is the tail of the moving commit's writes at site 1, so the
// crash index is searched backwards from the end of a counting run.
func interruptedMove(t *testing.T) *core.System {
	t.Helper()
	count := placementCluster(t)
	if err := warmMove(count); err != nil {
		t.Fatal(err)
	}
	disk := count.Cluster().Site(1).Volume("v1").Disk()
	before := disk.StableWrites()
	if err := moveCommit(count); err != nil {
		t.Fatal(err)
	}
	writes := int(disk.StableWrites() - before)
	if home, err := count.Cluster().StorageSite("v1/hot"); err != nil || home != 2 {
		t.Fatalf("counting run: v1/hot did not move to site 2 (home %v, err %v)", home, err)
	}
	for k := writes - 1; k >= 0; k-- {
		sys := placementCluster(t)
		if err := warmMove(sys); err != nil {
			t.Fatal(err)
		}
		cl := sys.Cluster()
		cl.Site(1).Volume("v1").Disk().CrashAfterWrites(k)
		moveCommit(sys) //nolint:errcheck // the crash may fail the commit; the copies decide
		home, err := cl.StorageSite("v1/hot")
		if err != nil || home != 2 {
			continue
		}
		src, err1 := cl.Site(1).HasLocalFile("v1", "hot")
		dst, err2 := cl.Site(2).HasLocalFile("v1", "hot")
		if err1 == nil && err2 == nil && src && dst {
			return sys
		}
	}
	t.Fatalf("no crash index among the %d source writes left v1/hot at both sites", writes)
	return nil
}

// checkAll runs every cluster-level check over the files the tests use.
func checkAll(sys *core.System) []Check {
	return append(Recovered(sys), SinglePrimary(sys, []string{"v1/f", "v2/f", "v1/hot"}, nil))
}

// TestChecksCatchInjectedDefects proves each check has teeth: a cluster
// crash-restarted after a clean run (a completed move included) passes
// every check, and each planted defect is flagged by its own check with
// a message naming the offending object.
func TestChecksCatchInjectedDefects(t *testing.T) {
	cases := []struct {
		name  string
		check string
		// build returns the defective cluster and the text the check's
		// violation must contain.
		build func(t *testing.T) (*core.System, string)
	}{
		{
			name:  "residual transaction lock",
			check: "lock-table",
			build: func(t *testing.T) (*core.System, string) {
				sys := newCluster(t, cluster.Config{})
				fl := sys.Cluster().Site(1).Locks().File("v1/f", nil)
				req := lockmgr.Request{Holder: lockmgr.Holder{PID: 99, Txn: "t-left"}, Mode: lockmgr.ModeExclusive, Len: 10}
				if _, err := fl.Lock(req); err != nil {
					t.Fatal(err)
				}
				return sys, "site 1 v1/f: residual exclusive lock txn:t-left [0,10)"
			},
		},
		{
			// The lock manager lets exclusive ranges of different
			// conflict groups overlap in one case only: a process's
			// own pre-transaction lock (section 3.4).  That plants the
			// pair.
			name:  "conflicting exclusive grants",
			check: "lock-table",
			build: func(t *testing.T) (*core.System, string) {
				sys := newCluster(t, cluster.Config{})
				fl := sys.Cluster().Site(2).Locks().File("v2/f", nil)
				for _, h := range []lockmgr.Holder{{PID: 7}, {PID: 7, Txn: "t-own"}} {
					if _, err := fl.Lock(lockmgr.Request{Holder: h, Mode: lockmgr.ModeExclusive, Len: 10}); err != nil {
						t.Fatal(err)
					}
				}
				return sys, "site 2 v2/f: conflicting grants pid:7 exclusive [0,10) vs txn:t-own exclusive [0,10)"
			},
		},
		{
			name:  "allocated page no inode references",
			check: "allocator",
			build: func(t *testing.T) (*core.System, string) {
				sys := newCluster(t, cluster.Config{})
				pg, err := sys.Cluster().Site(1).Volume("v1").AllocPage()
				if err != nil {
					t.Fatal(err)
				}
				return sys, fmt.Sprintf("site 1 v1: page %d allocated but referenced by no inode", pg)
			},
		},
		{
			name:  "leftover prepare record",
			check: "resolution",
			build: func(t *testing.T) (*core.System, string) {
				sys := newCluster(t, cluster.Config{})
				rec := tpc.PrepareRecord{Txid: "t-stale", CoordSite: 1}
				if err := tpc.WritePrepareRecord(sys.Cluster().Site(2).Volume("v2"), rec, ""); err != nil {
					t.Fatal(err)
				}
				return sys, "site 2 v2: 1 residual prepare records"
			},
		},
		{
			name:  "file with a local copy at two sites",
			check: "single-primary",
			build: func(t *testing.T) (*core.System, string) {
				return interruptedMove(t), "v1/hot: primary copies at sites [site1 site2], catalog says site2"
			},
		},
	}

	t.Run("clean", func(t *testing.T) {
		sys := placementCluster(t)
		if err := warmMove(sys); err != nil {
			t.Fatal(err)
		}
		if err := moveCommit(sys); err != nil {
			t.Fatal(err)
		}
		for _, id := range sys.Cluster().Sites() {
			s := sys.Cluster().Site(id)
			s.Crash()
			if err := s.Restart(); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range checkAll(sys) {
			if len(c.Violations) != 0 {
				t.Errorf("%s (%s): %v", c.Name, c.Detail, c.Violations)
			}
		}
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, want := tc.build(t)
			found := false
			for _, c := range checkAll(sys) {
				if c.Name != tc.check {
					continue
				}
				found = true
				if !strings.Contains(strings.Join(c.Violations, "\n"), want) {
					t.Fatalf("%s missed the defect: want a violation containing %q, got %v", c.Name, want, c.Violations)
				}
			}
			if !found {
				t.Fatalf("no %s check ran", tc.check)
			}
		})
	}
}
