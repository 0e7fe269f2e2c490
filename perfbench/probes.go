package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/fs"
	"repro/internal/lockmgr"
	"repro/internal/shadow"
	"repro/internal/simdisk"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/tpc"
	"repro/internal/vtime"
)

// probe times one layer's public functions outside the system, sized
// like the workloads' operations: 1 KB pages and 8 to 64 B records.
type probe struct {
	name   string // "<module>.<operation>"
	allocs bool   // whether allocs_op is reported
	// setup builds the layer and returns a function that performs n
	// operations.
	setup func() (func(n int) error, error)
}

// newVolume formats a fresh volume on a fresh disk.
func newVolume(pages int) (*fs.Volume, error) {
	return fs.Format("probe", simdisk.New("probe", pages, pageSize, stats.NewSet()), fs.Options{})
}

var probes = []probe{
	{"simdisk.write_page", true, func() (func(int) error, error) {
		d := simdisk.New("probe", 64, pageSize, stats.NewSet())
		page := make([]byte, pageSize)
		return func(n int) error {
			for i := 0; i < n; i++ {
				if err := d.WritePage(i%64, page, simdisk.IOData, true); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}},
	{"simdisk.write_pages", false, func() (func(int) error, error) {
		d := simdisk.New("probe", 64, pageSize, stats.NewSet())
		batch := []simdisk.PageWrite{
			{Page: 0, Data: make([]byte, pageSize), Kind: simdisk.IOData},
			{Page: 1, Data: make([]byte, pageSize), Kind: simdisk.IOData},
		}
		return func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := d.WritePages(batch); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}},
	{"fs.log_put_delete", true, func() (func(int) error, error) {
		v, err := newVolume(512)
		if err != nil {
			return nil, err
		}
		payload := make([]byte, 200)
		log := v.Log()
		return func(n int) error {
			for i := 0; i < n; i++ {
				if err := log.Put("prep:probe", fs.KindPrepare, payload); err != nil {
					return err
				}
				if err := log.Delete("prep:probe"); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}},
	{"shadow.write_commit", true, func() (func(int) error, error) {
		v, err := newVolume(512)
		if err != nil {
			return nil, err
		}
		ino, err := v.AllocInode()
		if err != nil {
			return nil, err
		}
		f, err := shadow.Open(v, ino)
		if err != nil {
			return nil, err
		}
		const owner shadow.Owner = "txn:probe"
		if _, err := f.WriteAt(owner, make([]byte, tpFileBytes), 0); err != nil {
			return nil, err
		}
		if err := f.Commit(owner); err != nil {
			return nil, err
		}
		rec := make([]byte, tpRecBytes)
		return func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := f.WriteAt(owner, rec, int64(i%tpAccounts*tpRecBytes)); err != nil {
					return err
				}
				if err := f.Commit(owner); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}},
	{"lockmgr.lock_release", true, func() (func(int) error, error) {
		m := lockmgr.NewManager(stats.NewSet())
		m.SetClock(vtime.Real())
		fl := m.File("probe/f", func() int64 { return tpFileBytes })
		h := lockmgr.Holder{PID: 1, Txn: "probe"}
		group := h.Group()
		return func(n int) error {
			for i := 0; i < n; i++ {
				req := lockmgr.Request{Holder: h, Mode: lockmgr.ModeExclusive, Off: int64(i % tpAccounts * tpRecBytes), Len: tpRecBytes}
				if _, err := fl.Lock(req); err != nil {
					return err
				}
				fl.ReleaseGroup(group)
			}
			return nil
		}, nil
	}},
	{"simnet.call", true, func() (func(int) error, error) {
		clk := vtime.NewVirtual()
		net := simnet.New(simnet.Config{Latency: vax.MsgTime, Clock: clk}, stats.NewSet())
		from := net.AddSite(1)
		net.AddSite(2).Handle("echo", func(_ simnet.SiteID, req any) (any, error) { return req, nil })
		req := make([]byte, rmRecBytes)
		return func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := from.Call(2, "echo", req); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}},
	{"tpc.prepare_record", false, func() (func(int) error, error) {
		v, err := newVolume(512)
		if err != nil {
			return nil, err
		}
		rec := tpc.PrepareRecord{
			Txid:      "site1-000001",
			CoordSite: 1,
			Files: []tpc.PreparedFile{{
				FileID: tpPath,
				Intentions: shadow.IntentionsList{
					Ino: 1, NewSize: tpFileBytes,
					Entries: []shadow.Intention{
						{Logical: 3, Base: 40, Shadow: 90, Ranges: []shadow.Range{{Off: 8, Len: 8}}},
						{Logical: 17, Base: 54, Shadow: 91, Ranges: []shadow.Range{{Off: 512, Len: 8}}},
					},
				},
			}},
			Locks: []tpc.LockInfo{
				{FileID: tpPath, Mode: lockmgr.ModeExclusive, Off: 3*pageSize + 8, Len: 8},
				{FileID: tpPath, Mode: lockmgr.ModeExclusive, Off: 17*pageSize + 512, Len: 8},
			},
		}
		return func(n int) error {
			for i := 0; i < n; i++ {
				if err := tpc.WritePrepareRecord(v, rec, ""); err != nil {
					return err
				}
				if err := tpc.DeletePrepareRecords(v, rec.Txid); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}},
	{"vtime.sleep_wake", true, func() (func(int) error, error) {
		clk := vtime.NewVirtual()
		// Two actors trade the clock: each sleeps n/2 times for 1 ms,
		// and every sleep parks one actor and wakes the other.
		return func(n int) error {
			g := vtime.NewGroup(clk)
			for a := 0; a < 2; a++ {
				g.Go(func() {
					for i := 0; i < n/2; i++ {
						clk.Sleep(time.Millisecond)
					}
				})
			}
			g.Wait()
			return nil
		}, nil
	}},
}

// probeBatch is the shortest host time one measured batch may take.
const probeBatch = 5 * time.Millisecond

// runProbe measures p for about budget and returns the median ns/op and
// allocs/op over its batches.
func runProbe(p probe, budget time.Duration) (nsOp, allocsOp float64, err error) {
	do, err := p.setup()
	if err != nil {
		return 0, 0, fmt.Errorf("%s set-up: %w", p.name, err)
	}
	// Grow the batch until one takes probeBatch; the growth doubles as
	// warm-up.
	n := 16
	for {
		t0 := time.Now()
		if err := do(n); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", p.name, err)
		}
		if time.Since(t0) >= probeBatch || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var ns, allocs []float64
	var mstats runtime.MemStats
	deadline := time.Now().Add(budget)
	for len(ns) < 3 || time.Now().Before(deadline) {
		runtime.ReadMemStats(&mstats)
		m0 := mstats.Mallocs
		t0 := time.Now()
		if err := do(n); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", p.name, err)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&mstats)
		ns = append(ns, float64(el.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(mstats.Mallocs-m0)/float64(n))
	}
	return median(ns), median(allocs), nil
}
