package cluster_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lockmgr"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// readMostlyShape builds the readmostly-2pc layout: three sites with one
// volume each, a client process at site 1, and two files the client
// opens at sites 2 and 3.  Site 1 coordinates, but stores neither file,
// so no participant's finishTxn ever runs there.
func readMostlyShape(t *testing.T, cfg cluster.Config) (*core.System, *core.Process, []*core.File) {
	t.Helper()
	sys := core.NewSystem(cfg)
	for id := simnet.SiteID(1); id <= 3; id++ {
		sys.AddSite(id)
		if err := sys.AddVolume(id, fmt.Sprintf("v%d", id)); err != nil {
			t.Fatal(err)
		}
	}
	client, err := sys.NewProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	var files []*core.File
	for _, path := range []string{"v2/a", "v3/b"} {
		f, err := client.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, 64), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if f, err = client.Open(path); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return sys, client, files
}

// touchAll accesses 8 bytes of every file: a read, which locks shared
// implicitly, or an explicitly locked write.
func touchAll(t *testing.T, files []*core.File, write bool) {
	t.Helper()
	buf := make([]byte, 8)
	for i, f := range files {
		off := int64(8 * i)
		if !write {
			if _, err := f.ReadAt(buf, off); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := f.LockRange(off, 8, core.Exclusive); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRequestingSiteCacheDiesWithTxn checks that the requesting site's
// lock cache holds nothing once its transactions and processes are done:
// section 5.1 caches a lock for one transaction only.
func TestRequestingSiteCacheDiesWithTxn(t *testing.T) {
	const n = 5
	sys, client, files := readMostlyShape(t, cluster.Config{})
	s1 := sys.Cluster().Site(1)

	// end runs one transaction and finishes it with finish; the cache
	// must be in use while the transaction runs and empty after it.
	end := func(what string, write bool, finish func() error) {
		t.Helper()
		if _, err := client.BeginTrans(); err != nil {
			t.Fatal(err)
		}
		touchAll(t, files, write)
		if got := s1.CachedLockGroups(); got != 1 {
			t.Fatalf("%s: %d groups cached mid-transaction, want 1", what, got)
		}
		if err := finish(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := s1.CachedLockGroups(); got != 0 {
			t.Fatalf("%s: site 1 still caches %d lock groups", what, got)
		}
	}
	for i := 0; i < n; i++ {
		end("read-only commit", false, client.EndTrans)
	}
	for i := 0; i < n; i++ {
		end("writing commit", true, client.EndTrans)
	}
	end("abort", true, client.AbortTrans)

	// A non-transaction process's locks die with its close.
	p, err := sys.NewProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Open("v2/a")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.LockRange(0, 8, core.Exclusive); err != nil {
		t.Fatal(err)
	}
	if got := s1.CachedLockGroups(); got != 1 {
		t.Fatalf("non-transaction lock: %d groups cached, want 1", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s1.CachedLockGroups(); got != 0 {
		t.Fatalf("non-transaction close: site 1 still caches %d lock groups", got)
	}
}

func TestCacheCoversAdjacentRanges(t *testing.T) {
	cl := cluster.New(cluster.Config{})
	s := cl.AddSite(1)
	const g = "txn:T1"
	s.CacheAdd("v/f", g, lockmgr.ModeExclusive, 0, 10)
	s.CacheAdd("v/f", g, lockmgr.ModeShared, 10, 10)
	for _, c := range []struct {
		file, group string
		mode        lockmgr.Mode
		off, len    int64
		want        bool
	}{
		{"v/f", g, lockmgr.ModeShared, 5, 10, true},     // spans the seam
		{"v/f", g, lockmgr.ModeShared, 0, 20, true},     // both ranges whole
		{"v/f", g, lockmgr.ModeExclusive, 0, 10, true},  // first range alone
		{"v/f", g, lockmgr.ModeExclusive, 5, 10, false}, // second is shared
		{"v/f", g, lockmgr.ModeShared, 15, 10, false},   // runs past the end
		{"v/f", "txn:T2", lockmgr.ModeShared, 0, 5, false},
		{"v/other", g, lockmgr.ModeShared, 0, 5, false},
	} {
		if got := s.CacheCovers(c.file, c.group, c.mode, c.off, c.len); got != c.want {
			t.Errorf("covers(%s, %s, %v, [%d,+%d)) = %v, want %v",
				c.file, c.group, c.mode, c.off, c.len, got, c.want)
		}
	}
}

func TestCacheTrimSplitsRange(t *testing.T) {
	cl := cluster.New(cluster.Config{})
	s := cl.AddSite(1)
	const g = "pid:7"
	s.CacheAdd("v/f", g, lockmgr.ModeExclusive, 0, 30)
	s.CacheAdd("v/f", "pid:8", lockmgr.ModeExclusive, 0, 30)
	s.CacheTrim("v/f", g, 10, 10)
	for _, c := range []struct {
		off, len int64
		want     bool
	}{
		{0, 10, true},
		{20, 10, true},
		{10, 10, false},
		{5, 10, false},
		{19, 2, false},
	} {
		if got := s.CacheCovers("v/f", g, lockmgr.ModeExclusive, c.off, c.len); got != c.want {
			t.Errorf("after trim, covers [%d,+%d) = %v, want %v", c.off, c.len, got, c.want)
		}
	}
	if !s.CacheCovers("v/f", "pid:8", lockmgr.ModeExclusive, 0, 30) {
		t.Error("trim of one group cut another group's range")
	}
	// Trimming what is left empties the group entirely.
	s.CacheTrim("v/f", g, 0, 30)
	s.CacheTrim("v/f", "pid:8", 0, 30)
	if got := s.CachedLockGroups(); got != 0 {
		t.Fatalf("fully trimmed cache holds %d groups", got)
	}
}

// TestLockCacheAblationSendsEveryLock keeps ablation E8 honest under the
// group-keyed cache: with DisableLockCache, each transactional access
// sends its own lock message; with the cache, a repeat access sends none.
func TestLockCacheAblationSendsEveryLock(t *testing.T) {
	for _, disable := range []bool{false, true} {
		sys, client, files := readMostlyShape(t, cluster.Config{DisableLockCache: disable})
		const accesses = 3
		if _, err := client.BeginTrans(); err != nil {
			t.Fatal(err)
		}
		before := sys.Stats().Snapshot()
		buf := make([]byte, 8)
		for i := 0; i < accesses; i++ {
			if _, err := files[0].ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		got := sys.Stats().Snapshot().Sub(before).Get(stats.LockMsgs)
		if err := client.EndTrans(); err != nil {
			t.Fatal(err)
		}
		want := int64(1)
		if disable {
			want = accesses
		}
		if got != want {
			t.Errorf("DisableLockCache=%v: %d lock messages for %d accesses, want %d", disable, got, accesses, want)
		}
	}
}
