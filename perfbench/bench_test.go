package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// serial runs the test with one OS thread, as BENCHMARK.json runs the
// benchmark: with more, the Go scheduler's choices leak into the
// simulation.
func serial(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func mustWorkload(t *testing.T, name string, seed int64) workload {
	t.Helper()
	w, err := newWorkload(name, seed, txnsPerClient)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mustRound(t *testing.T, w workload, opts roundOpts) *roundResult {
	t.Helper()
	r, err := runRound(w.newRound(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// spec is the part of BENCHMARK.json the tests read.
type spec struct {
	EndToEnd []struct {
		Name  string
		Bound float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func benchmarkSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// bound is the BENCHMARK.json bound of an end-to-end metric.
func bound(t *testing.T, name string) float64 {
	t.Helper()
	for _, m := range benchmarkSpec(t).EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %s", name)
	return 0
}

// value applies the named metric of defs to r.
func value(t *testing.T, defs []roundMetric, name string, r *roundResult) float64 {
	t.Helper()
	for _, d := range defs {
		if d.name == name {
			return d.of(r)
		}
	}
	t.Fatalf("no metric %s", name)
	return 0
}

func TestSameSeedSimulatedMetricsIdentical(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector reorders goroutines")
	}
	serial(t)
	for _, name := range workloadNames {
		w := mustWorkload(t, name, 7)
		a, b := mustRound(t, w, roundOpts{}), mustRound(t, w, roundOpts{})
		la, lb := latencies([]*roundResult{a}), latencies([]*roundResult{b})
		for i := range la {
			if la[i] != lb[i] {
				t.Errorf("%s: %s is %v and %v in two runs at one seed", name, la[i].name, la[i].value, lb[i].value)
			}
		}
		for _, d := range endToEndMetrics {
			if !strings.HasPrefix(d.name, "sim_") && !strings.Contains(d.name, "ios") {
				continue
			}
			if va, vb := d.of(a), d.of(b); va != vb {
				t.Errorf("%s: %s is %v and %v in two runs at one seed", name, d.name, va, vb)
			}
		}
		if !reflect.DeepEqual(a.counters, b.counters) {
			t.Errorf("%s: counters differ in two runs at one seed:\n%v\n%v", name, a.counters, b.counters)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, name := range workloadNames {
		inputs := func(seed int64) []workload {
			ws, err := newInputs(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			return ws
		}
		a, b, c := inputs(1), inputs(1), inputs(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed generated two different inputs", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", name)
		}
	}
}

// tampered corrupts a workload's expectation just before its check.
type tampered struct {
	workload
	tamper func(workload)
}

func (w tampered) newRound() workload { return tampered{w.workload.newRound(), w.tamper} }

func (w tampered) verify(sys *core.System, p *core.Process) error {
	w.tamper(w.workload)
	return w.workload.verify(sys, p)
}

func TestCheckRejectsTamperedExpectation(t *testing.T) {
	serial(t)
	tampers := map[string]func(workload){
		"tp1-local": func(w workload) {
			tp := w.(*tp1)
			tp.acked[0] = tp.acked[0][1:] // forget one acknowledged transfer
		},
		"readmostly-2pc": func(w workload) {
			rm := w.(*readMostly)
			op := rm.ops[0][0]
			rm.acked[0][op.files[0]][op.recs[0]] = 1 << 20 // claim writes that never happened
		},
		"skew-allflags": func(w workload) {
			sk := w.(*skew)
			sk.acked[1][sk.picks[1][0]]-- // expect an older sequence number
		},
	}
	for _, name := range workloadNames {
		w := tampered{mustWorkload(t, name, 3), tampers[name]}
		if _, err := runRound(w.newRound(), roundOpts{}); !errors.Is(err, errCheck) {
			t.Errorf("%s: tampered expectation gave %v, want a check failure", name, err)
		}
	}
}

func sorted(names []string) []string {
	s := append([]string(nil), names...)
	sort.Strings(s)
	return s
}

func TestLayerReportNamesEveryMetric(t *testing.T) {
	serial(t)
	ws, err := newInputs("readmostly-2pc", 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tracedRun(ws[:1], 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, m := range rep.metrics {
		got = append(got, m.name)
	}
	for _, m := range benchmarkSpec(t).PerLayer {
		want = append(want, m.Name)
	}
	if !reflect.DeepEqual(sorted(got), sorted(want)) {
		t.Errorf("traced run reports\n%v\nBENCHMARK.json per_layer names\n%v", sorted(got), sorted(want))
	}
}

func TestResultLine(t *testing.T) {
	serial(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "skew-allflags", "-seed", "2", "-seconds", "0.01"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil {
		t.Fatalf("result keys: %v", res)
	}
	var metrics map[string]jsonMetric
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	var names, endToEnd []string
	for name, m := range metrics {
		names = append(names, name)
		if m.Value <= 0 {
			t.Errorf("%s = %v %s; every end-to-end metric is positive", name, m.Value, m.Unit)
		}
	}
	for _, m := range benchmarkSpec(t).EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	if !reflect.DeepEqual(sorted(names), sorted(endToEnd)) {
		t.Errorf("result metrics %v, BENCHMARK.json end_to_end %v", sorted(names), sorted(endToEnd))
	}
}

// profiledRound runs one profiled round of the named workload with
// every heap allocation recorded.
func profiledRound(t *testing.T, name string) *roundResult {
	t.Helper()
	prev := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = prev }()
	return mustRound(t, mustWorkload(t, name, 1), roundOpts{spans: true, profile: true})
}

// TestHeapBytesByModuleSumToTotal checks the heap attribution: the
// modules' bytes plus the bytes allocated outside repro/internal are
// the window's allocated bytes.
func TestHeapBytesByModuleSumToTotal(t *testing.T) {
	serial(t)
	for _, name := range workloadNames {
		r := profiledRound(t, name)
		var mods int64
		for _, b := range r.modBytes {
			mods += b
		}
		total := int64(r.allocBytes)
		if diff := math.Abs(float64(total - mods - r.outBytes)); diff > 0.02*float64(total) {
			t.Errorf("%s: modules %d B + outside %d B, window allocated %d B", name, mods, r.outBytes, total)
		}
		if r.outBytes > total/10 {
			t.Errorf("%s: %d of %d B allocated outside repro/internal", name, r.outBytes, total)
		}
	}
}

// TestSynchronizationIsLoaded checks that tp1-local makes the lock
// manager wait and the commit difference pages, the two mechanisms of
// the paper's synchronization half.
func TestSynchronizationIsLoaded(t *testing.T) {
	serial(t)
	r := profiledRound(t, "tp1-local")
	for _, name := range []string{"lockmgr.waits_per_txn", "shadow.page_diffs_per_txn", "lockmgr.lock_wait_ms_per_txn"} {
		if v := value(t, profiledMetrics, name, r); v <= 0 {
			t.Errorf("tp1-local: %s = %v, want > 0", name, v)
		}
	}
}

// sidesOf runs rounds of w, alternating base and changed, and returns
// the named end-to-end metric over each side, read at the quantile the
// benchmark reads it at.  Alternating keeps a drift in host speed out of
// the comparison.
func sidesOf(t *testing.T, w workload, changed roundOpts, name string, rounds int) (base, with float64) {
	t.Helper()
	defs, q := endToEndMetrics, 0.5
	if name == hostUSPerTxn.name {
		defs, q = []roundMetric{hostUSPerTxn}, hostQuantile
	}
	vals := [2][]float64{}
	for i := 0; i < rounds; i++ {
		for k, opts := range [2]roundOpts{{}, changed} {
			vals[k] = append(vals[k], value(t, defs, name, mustRound(t, w, opts)))
		}
	}
	return percentile(vals[0], q), percentile(vals[1], q)
}

// TestSensitivity changes only public configuration that is known to
// move one end-to-end metric, and checks that the benchmark sees the
// metric move in the predicted direction by more than its bound.
func TestSensitivity(t *testing.T) {
	serial(t)
	type change struct {
		workload, metric string
		rise             bool // the predicted direction
		opts             roundOpts
	}
	cases := []change{
		// Footnote 9: two I/Os per log append.
		{"tp1-local", "forced_ios_per_txn", true, roundOpts{tweak: func(c *cluster.Config) { c.DoubleLogWrites = true }}},
		// The two clients' log records share forces.
		{"tp1-local", "forced_ios_per_txn", false, roundOpts{tweak: func(c *cluster.Config) { c.GroupCommitMaxDelay = vax.DiskWriteTime }}},
		// Ablation E8: every access re-validates at the storage site.
		{"readmostly-2pc", "ios_plus_msgs_per_txn", true, roundOpts{tweak: func(c *cluster.Config) { c.DisableLockCache = true }}},
	}
	if !raceEnabled {
		// Under the race detector its own cost dwarfs the collector's.
		for _, name := range workloadNames {
			cases = append(cases, change{name, "host_us_per_txn", true, roundOpts{collector: true}})
		}
	}
	for _, c := range cases {
		w := mustWorkload(t, c.workload, 1)
		rounds := 1
		if c.metric == "host_us_per_txn" {
			rounds = 15
		}
		base, changed := sidesOf(t, w, c.opts, c.metric, rounds)
		b := bound(t, c.metric)
		moved := changed > base*(1+b)
		if !c.rise {
			moved = changed < base*(1-b)
		}
		if !moved {
			t.Errorf("%s: %s went from %.4g to %.4g; want a move of more than %.0f%% (rise: %v)", c.workload, c.metric, base, changed, 100*b, c.rise)
		} else {
			t.Logf("%s: %s went from %.4g to %.4g (bound %.0f%%)", c.workload, c.metric, base, changed, 100*b)
		}
	}
}
