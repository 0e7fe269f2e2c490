// Command perfbench is the repository's benchmark.  It runs one named
// workload through the public core API on the virtual clock, under the
// VAX-750 disk and network latencies, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as the last line of
// standard output:
//
//	go run . -workload tp1-local -seed 1 -seconds 30 -trace 0
//
// The seed generates eight input sets.  A run spends its host-time
// budget in rounds that cycle through them, and always measures whole
// cycles.  Each round builds a fresh system (the timed set-up), runs two
// closed-loop clients through one input set's fixed number of
// transactions, then crashes and restarts every site and checks the
// recovered data against the acknowledged transactions.  The latency
// percentiles pool the commits of the first cycle; the windows' host
// time is that of the fastest round, every other metric the median.
// So no per-transaction figure depends on how many rounds the budget
// allowed.  A failed check prints "correct": false and exits 1.
//
// README.md beside this file lists the metrics and why each workload
// was chosen.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// txnsPerClient is each client's transaction count per round: two
// clients give 1,200 commits, so a round's p99 has twelve samples above
// it.
const txnsPerClient = 600

// inputSets is the number of input sets a run generates from its seed.
// One set's simulated figures vary with its seed by a few percent; their
// median over eight sets varies much less.
const inputSets = 8

// Shares of a traced run's budget: untraced and collector rounds
// alternating, serial span rounds, the layer probes; profiled rounds
// take the rest.
const (
	overheadShare = 0.3
	spanShare     = 0.2
	probeShare    = 0.2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report is one workload's run.
type report struct {
	workload  string
	rounds    int
	commits   int // per round
	attempted int
	failed    int
	metrics   []metric
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fl.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fl.Float64("seconds", 10, "host seconds to measure for, per workload")
	traced := fl.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	budget := time.Duration(*seconds * float64(time.Second))

	res := result{Correct: true, Metrics: map[string]jsonMetric{}}
	var reports []report
	for _, n := range names {
		ws, err := newInputs(n, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		var rep report
		if *traced == 1 {
			rep, err = tracedRun(ws, budget)
		} else {
			rep, err = plainRun(ws, budget)
		}
		rep.workload = n
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			if !errors.Is(err, errCheck) {
				return 2
			}
			res.Correct = false
			continue
		}
		reports = append(reports, rep)
		for _, m := range rep.metrics {
			key := m.name
			if len(names) > 1 {
				key = n + "." + m.name
			}
			res.Metrics[key] = jsonMetric{m.value, m.unit}
		}
	}
	printTable(stdout, reports, *traced == 1)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs rounds in whole cycles over the input sets ws, every kind
// of round on each set in turn, until budget has passed.  It returns the
// rounds of each kind and adds their tallies to rep.
func measure(ws []workload, budget time.Duration, rep *report, kinds ...roundOpts) ([][]*roundResult, error) {
	out := make([][]*roundResult, len(kinds))
	start := time.Now()
	for len(out[0]) == 0 || time.Since(start) < budget {
		for _, w := range ws {
			for k, opts := range kinds {
				r, err := runRound(w.newRound(), opts)
				if r != nil {
					rep.attempted += r.attempted
					rep.failed += r.failed
				}
				if err != nil {
					return nil, err
				}
				if len(out[k]) >= len(ws) {
					// Later cycles repeat the first cycle's simulated
					// latencies; dropping them keeps the benchmark's own
					// heap from growing with the run.
					r.lats = nil
				}
				out[k] = append(out[k], r)
				rep.rounds++
			}
		}
	}
	return out, nil
}

// plainRun measures the end-to-end metrics with tracing off.
func plainRun(ws []workload, budget time.Duration) (report, error) {
	var rep report
	rounds, err := measure(ws, budget, &rep, roundOpts{})
	if err != nil {
		return rep, err
	}
	rep.commits = rounds[0][0].commits()
	rep.metrics = append(latencies(rounds[0]), overRounds(endToEndMetrics, rounds[0], 0.5)...)
	rep.metrics = append(rep.metrics, overRounds([]roundMetric{hostUSPerTxn}, rounds[0], hostQuantile)...)
	return rep, nil
}

// tracedRun measures the per-layer metrics in four parts:
//   - untraced rounds alternating with trace-collector rounds give the
//     GC's CPU share and the collector's overhead;
//   - serial rounds, one client at a time, give the core calls' host
//     spans;
//   - the layer probes time each layer alone;
//   - profiled two-client rounds, with every heap allocation recorded,
//     give the counts, the simulated-time spans, the profiler's
//     attribution and the heap bytes by module.  They come last because
//     the heap profile slows everything after it.
func tracedRun(ws []workload, budget time.Duration) (report, error) {
	var rep report
	share := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }

	ab, err := measure(ws, share(overheadShare), &rep, roundOpts{}, roundOpts{collector: true})
	if err != nil {
		return rep, err
	}
	host := []roundMetric{hostUSPerTxn}
	overhead := overRounds(host, ab[1], hostQuantile)[0].value / overRounds(host, ab[0], hostQuantile)[0].value
	rep.metrics = append(rep.metrics, overRounds([]roundMetric{gcShareMetric}, ab[0], 0.5)...)
	rep.metrics = append(rep.metrics, metric{"trace.overhead_ratio", "ratio", overhead})

	serial, err := measure(ws, share(spanShare), &rep, roundOpts{serial: true, spans: true})
	if err != nil {
		return rep, err
	}
	rep.metrics = append(rep.metrics, overRounds(hostSpanMetrics, serial[0], hostQuantile)...)

	perProbe := share(probeShare) / time.Duration(len(probes))
	for _, p := range probes {
		ns, allocs, err := runProbe(p, perProbe)
		if err != nil {
			return rep, err
		}
		rep.metrics = append(rep.metrics, metric{p.name + ".ns_op", "ns", ns})
		if p.allocs {
			rep.metrics = append(rep.metrics, metric{p.name + ".allocs_op", "count", allocs})
		}
	}

	prevRate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	rest := share(1 - overheadShare - spanShare - probeShare)
	profiled, err := measure(ws, rest, &rep, roundOpts{spans: true, profile: true})
	runtime.MemProfileRate = prevRate
	if err != nil {
		return rep, err
	}
	rep.commits = profiled[0][0].commits()
	rep.metrics = append(rep.metrics, overRounds(profiledMetrics, profiled[0], 0.5)...)
	return rep, nil
}

// printTable writes the reports as a table: one row per workload for
// the end-to-end set, one row per metric for the per-layer set.  The
// first columns give the rounds measured, the commits behind each
// round's percentiles and the transactions attempted and failed.
func printTable(out io.Writer, reports []report, traced bool) {
	if len(reports) == 0 {
		return
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	if !traced {
		fmt.Fprint(tw, "workload\trounds\tcommits/round\tattempted\tfailed\t")
		for _, m := range reports[0].metrics {
			fmt.Fprintf(tw, "%s (%s)\t", m.name, m.unit)
		}
		fmt.Fprintln(tw)
		for _, r := range reports {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t", r.workload, r.rounds, r.commits, r.attempted, r.failed)
			for _, m := range r.metrics {
				fmt.Fprintf(tw, "%.4g\t", m.value)
			}
			fmt.Fprintln(tw)
		}
	} else {
		row := func(label string, cell func(r report) string) {
			fmt.Fprintf(tw, "%s\t", label)
			for _, r := range reports {
				fmt.Fprintf(tw, "%s\t", cell(r))
			}
			fmt.Fprintln(tw)
		}
		row("metric (unit)", func(r report) string { return r.workload })
		row("rounds", func(r report) string { return fmt.Sprint(r.rounds) })
		row("commits/round", func(r report) string { return fmt.Sprint(r.commits) })
		row("attempted", func(r report) string { return fmt.Sprint(r.attempted) })
		row("failed", func(r report) string { return fmt.Sprint(r.failed) })
		for i, m := range reports[0].metrics {
			row(fmt.Sprintf("%s (%s)", m.name, m.unit), func(r report) string { return fmt.Sprintf("%.4g", r.metrics[i].value) })
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
