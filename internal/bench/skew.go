package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// SkewRow is one configuration of the skewed-placement experiment: two
// client sites (2 and 3) driving Zipfian transactions against a pool of
// files all mounted at site 1, each client with its own rotated rank
// order so the hot sets are disjoint.  With adaptive placement off,
// every commit crosses the network to site 1 forever; with it on, the
// heat tracker migrates each client's hot files to that client and the
// Begin/End-time router localizes what remains, so after the warm-up
// window most transactions commit with zero remote participant sites.
// The run is serial (the two clients alternate turns in one goroutine)
// on the virtual clock, so every counter is deterministic - the CI gate
// diffs LocalCommitFraction (higher is better) and ForcedPerTxn against
// the committed BENCH_PR10.json.
type SkewRow struct {
	Case     string // e.g. "zipfian placement off"
	Pattern  string // "zipfian" / "shifting-hotspot"
	Adaptive bool
	// Txns is the measured-window transaction count (after warm-up);
	// Warmup the discarded prefix per client.
	Txns      int
	Warmup    int
	Committed int64
	Aborted   int64
	// The headline locality metrics, all measured after warm-up.
	LocalCommits        int64
	LocalCommitFraction float64 // LocalCommits / Committed
	RemotePartsPerTxn   float64 // remote participant sites per commit
	MsgsPerTxn          float64
	ForcedPerTxn        float64
	// Placement machinery activity over the whole run (warm-up
	// included - that is where the moves happen).
	OwnerMoves    int64
	RoutedCommits int64
	ProcMoves     int64 // Begin-time process migrations
	SimTime       time.Duration
	Counters      stats.Snapshot
}

// SkewOpts parameterizes SkewPlacement.
type SkewOpts struct {
	Pattern  workload.Pattern // Zipfian or ShiftingHotspot
	Adaptive bool
	// TxnsPerClient is the measured window; WarmupPerClient the
	// discarded prefix (defaults: 64 and 64).
	TxnsPerClient   int
	WarmupPerClient int
	// Files is the shared pool size at site 1 (default 32); ZipfS the
	// skew exponent (default workload.DefaultZipfS = 1.2).
	Files int
	ZipfS float64
	Seed  int64
}

func (o SkewOpts) withDefaults() SkewOpts {
	if o.TxnsPerClient <= 0 {
		o.TxnsPerClient = 64
	}
	if o.WarmupPerClient <= 0 {
		o.WarmupPerClient = 64
	}
	if o.Files <= 0 {
		o.Files = 32
	}
	if o.ZipfS == 0 {
		o.ZipfS = workload.DefaultZipfS
	}
	return o
}

// SkewPlacement runs the skewed workload once.
func SkewPlacement(o SkewOpts) (SkewRow, error) {
	o = o.withDefaults()
	clk := vtime.NewVirtual()
	cfg := cluster.Config{
		SyncPhase2:    true,
		FastPaths:     true,
		DiskSyncDelay: DefaultDiskSyncDelay,
		Clock:         clk,
	}
	if o.Adaptive {
		cfg.AdaptivePlacement = true
		// The measured windows are short (tens of accesses per hot
		// file), so the policy knobs come down proportionally: a file
		// moves once a remote site holds 60% of at least 3 decayed
		// accesses, and may move again after 8 more.
		cfg.PlacementMinAccesses = 3
		cfg.PlacementCooldown = 8
	}
	sys := core.NewSystem(cfg)
	for _, id := range []simnet.SiteID{1, 2, 3} {
		sys.AddSite(id)
	}
	for site, vol := range map[simnet.SiteID]string{1: "va", 2: "vb", 3: "vc"} {
		if err := sys.AddVolume(site, vol); err != nil {
			return SkewRow{}, err
		}
	}
	defer sys.Cluster().Shutdown()

	patName := "zipfian"
	if o.Pattern == workload.ShiftingHotspot {
		patName = "shifting-hotspot"
	}
	row := SkewRow{
		Case:     fmt.Sprintf("%s placement %s", patName, onOff(o.Adaptive)),
		Pattern:  patName,
		Adaptive: o.Adaptive,
		Txns:     2 * o.TxnsPerClient,
		Warmup:   o.WarmupPerClient,
	}

	var runErr error
	wg := vtime.NewGroup(clk)
	wg.Go(func() { runErr = skewBody(sys, clk, o, &row) })
	wg.Wait()
	if runErr != nil {
		return row, runErr
	}
	return row, nil
}

// skewBody is the serial workload driver; it runs on the virtual
// clock's scheduler so the simulated latencies elapse.
func skewBody(sys *core.System, clk vtime.Clock, o SkewOpts, row *SkewRow) error {
	// The shared pool: one page-sized file per slot at site 1.
	setup, err := sys.NewProcess(1)
	if err != nil {
		return err
	}
	paths := make([]string, o.Files)
	for i := range paths {
		paths[i] = fmt.Sprintf("va/f%02d", i)
		f, err := setup.Create(paths[i])
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(make([]byte, 256), 0); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	// Two clients with rotated rank orders: client c's rank r maps to
	// slot (r + c*Files/2) mod Files, so the hot heads are disjoint and
	// a correct policy must split the pool, not herd it to one site.
	type client struct {
		p      *core.Process
		files  map[string]*core.File
		choose *workload.Chooser
		rot    int
		next   int // access index (feeds Chooser.Next in order)
	}
	total := o.WarmupPerClient + o.TxnsPerClient
	clients := make([]*client, 2)
	for c := range clients {
		p, err := sys.NewProcess([]simnet.SiteID{2, 3}[c])
		if err != nil {
			return err
		}
		clients[c] = &client{
			p:      p,
			files:  make(map[string]*core.File),
			choose: workload.NewChooser(o.Pattern, int64(o.Files), o.Seed+int64(c), o.ZipfS, total/4, total),
			rot:    c * o.Files / 2,
		}
	}

	oneTxn := func(c *client, i int) error {
		rank := int(c.choose.Next(c.next))
		c.next++
		path := paths[(rank+c.rot)%o.Files]
		if _, err := c.p.BeginTrans(); err != nil {
			return err
		}
		f := c.files[path]
		if f == nil {
			// Open inside the transaction would tangle the file list;
			// handles are opened lazily outside and kept for the run
			// (live opens also exercise the move's ref inheritance).
			if err := c.p.AbortTrans(); err != nil {
				return err
			}
			var err error
			if f, err = c.p.Open(path); err != nil {
				return err
			}
			c.files[path] = f
			if _, err := c.p.BeginTrans(); err != nil {
				return err
			}
		}
		if _, err := f.WriteAt([]byte(fmt.Sprintf("%08d", i)), int64(c.rot)); err != nil {
			c.p.AbortTrans() //nolint:errcheck
			row.Aborted++
			return nil
		}
		if err := c.p.EndTrans(); err != nil {
			row.Aborted++
			return nil
		}
		return nil
	}

	// Warm-up window: the heat accumulates and the moves happen here.
	for i := 0; i < o.WarmupPerClient; i++ {
		for _, c := range clients {
			if err := oneTxn(c, i); err != nil {
				return err
			}
		}
	}

	before := sys.Stats().Snapshot()
	simStart := clk.Now()
	for i := 0; i < o.TxnsPerClient; i++ {
		for _, c := range clients {
			if err := oneTxn(c, o.WarmupPerClient+i); err != nil {
				return err
			}
		}
	}
	row.SimTime = clk.Now().Sub(simStart)

	d := sys.Stats().Snapshot().Sub(before)
	row.Committed = d.Get(stats.TxnCommits)
	row.LocalCommits = d.Get(stats.LocalCommits)
	if row.Committed > 0 {
		row.LocalCommitFraction = float64(row.LocalCommits) / float64(row.Committed)
		row.RemotePartsPerTxn = float64(d.Get(stats.RemoteParticipants)) / float64(row.Committed)
		row.MsgsPerTxn = float64(d.Get(stats.MsgsSent)) / float64(row.Committed)
		row.ForcedPerTxn = float64(d.Get(stats.ForcedIOs)) / float64(row.Committed)
	}
	row.Counters = d
	// Machinery activity over the whole run, warm-up included.
	whole := sys.Stats().Snapshot()
	row.OwnerMoves = whole.Get(stats.OwnerMoves)
	row.RoutedCommits = whole.Get(stats.RoutedCommits)
	row.ProcMoves = whole.Get(stats.PlacementMigrations)

	for _, c := range clients {
		for _, f := range c.files {
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// SkewSweep runs the experiment's four rows: both access patterns,
// placement off then on - the locusbench "skew" experiment and the
// skew section of BENCH_PR10.json.
func SkewSweep(txnsPerClient int) ([]SkewRow, error) {
	var rows []SkewRow
	for _, pat := range []workload.Pattern{workload.Zipfian, workload.ShiftingHotspot} {
		for _, adaptive := range []bool{false, true} {
			row, err := SkewPlacement(SkewOpts{Pattern: pat, Adaptive: adaptive, TxnsPerClient: txnsPerClient})
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
