package main

import (
	"sort"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// roundMetric computes a figure from one round; a run reports a
// quantile over its rounds.
type roundMetric struct {
	name string
	unit string
	of   func(r *roundResult) float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perTxn divides a window total by the round's committed transactions.
func perTxn(r *roundResult, total float64) float64 { return total / float64(r.commits()) }

func counterPerTxn(c stats.Counter) func(r *roundResult) float64 {
	return func(r *roundResult) float64 { return perTxn(r, float64(r.counters.Get(c))) }
}

// ratio is num/den, zero when nothing was counted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// hostQuantile is where over its rounds a run reads the host time of
// its measured windows: the fastest round.  The machine's other tenants
// only ever add host time, and their load comes and goes over seconds,
// so one run's rounds range over half again their fastest time.  Over
// eight runs each of tp1-local and skew-allflags, the fastest round
// moved 2% and 5% from run to run (quartile distance over median), the
// median round 6% and 12%, and the fast decile 12% each.  Every
// other metric is the median over the rounds, set-up time too: one
// set-up takes a fraction of a millisecond.
const hostQuantile = 0

// hostUSPerTxn is the raw host wall time of the measured window per
// committed transaction.
var hostUSPerTxn = roundMetric{"host_us_per_txn", "us", func(r *roundResult) float64 {
	return perTxn(r, float64(r.wall)/float64(time.Microsecond))
}}

// latencyMetric is a percentile of the simulated commit latency over the
// commits of one round per input set, pooled.  A round's percentile moves
// from one latency step to the next with its input set; over all the
// sets of a run it moves much less.
type latencyMetric struct {
	name string
	q    float64
}

var latencyMetrics = []latencyMetric{
	{"sim_commit_p50_ms", 0.50},
	{"sim_commit_p99_ms", 0.99},
}

// latencies computes the latency metrics over the commits the rounds
// kept: measure keeps those of the first cycle.
func latencies(rounds []*roundResult) []metric {
	var all []time.Duration
	for _, r := range rounds {
		all = append(all, r.lats...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := make([]metric, len(latencyMetrics))
	for i, m := range latencyMetrics {
		out[i] = metric{m.name, "ms", ms(quantile(all, m.q))}
	}
	return out
}

// endToEndMetrics are, with the latency metrics and hostUSPerTxn, what a
// user of the system sees, measured with tracing off.  setup_s comes
// from the same rounds.
var endToEndMetrics = []roundMetric{
	{"sim_txn_per_s", "1/s", func(r *roundResult) float64 { return float64(r.commits()) / r.sim.Seconds() }},
	{"forced_ios_per_txn", "count", counterPerTxn(stats.ForcedIOs)},
	// Messages are zero on a one-site workload, so the end-to-end
	// message figure is the sum of the paper's two units; the message
	// count alone is simnet.msgs_per_txn.
	{"ios_plus_msgs_per_txn", "count", func(r *roundResult) float64 {
		return perTxn(r, float64(r.counters.Get(stats.ForcedIOs)+r.counters.Get(stats.MsgsSent)))
	}},
	{"allocs_per_txn", "count", func(r *roundResult) float64 { return perTxn(r, float64(r.mallocs)) }},
	{"alloc_bytes_per_txn", "B", func(r *roundResult) float64 { return perTxn(r, float64(r.allocBytes)) }},
	{"retained_bytes_per_txn", "B", func(r *roundResult) float64 { return perTxn(r, float64(r.retained)) }},
	{"setup_s", "s", func(r *roundResult) float64 { return r.setup.Seconds() }},
}

// resourceMS is the profiler's attribution of one resource, in
// simulated ms per committed transaction.
func resourceMS(res string) func(r *roundResult) float64 {
	return func(r *roundResult) float64 {
		for _, s := range r.profile.Resources {
			if s.Resource == res {
				return perTxn(r, float64(s.TotalNS)/float64(time.Millisecond))
			}
		}
		return 0
	}
}

// modBytesPerTxn is the heap bytes charged to one module per committed
// transaction.
func modBytesPerTxn(mod string) roundMetric {
	return roundMetric{mod + ".alloc_bytes_per_txn", "B", func(r *roundResult) float64 {
		return perTxn(r, float64(r.modBytes[mod]))
	}}
}

// spanHostUS is the mean host time of one core call.
func spanHostUS(o op) func(r *roundResult) float64 {
	return func(r *roundResult) float64 {
		if r.calls[o] == 0 {
			return 0
		}
		return float64(r.hostDur[o]) / float64(time.Microsecond) / float64(r.calls[o])
	}
}

// spanSimMS is the mean simulated time of one core call.
func spanSimMS(o op) func(r *roundResult) float64 {
	return func(r *roundResult) float64 {
		if r.calls[o] == 0 {
			return 0
		}
		return ms(r.simDur[o]) / float64(r.calls[o])
	}
}

// hostSpanMetrics come from the serial rounds: one client at a time, so
// a span holds only the work its call caused.  They are read at
// hostQuantile.
var hostSpanMetrics = []roundMetric{
	{"core.begin.host_us", "us", spanHostUS(opBegin)},
	{"core.lock.host_us", "us", spanHostUS(opLock)},
	{"core.read.host_us", "us", spanHostUS(opRead)},
	{"core.write.host_us", "us", spanHostUS(opWrite)},
	{"core.end.host_us", "us", spanHostUS(opEnd)},
}

// gcShareMetric comes from the untraced rounds of the traced run.
var gcShareMetric = roundMetric{"runtime.gc_cpu_share", "ratio", func(r *roundResult) float64 { return r.gcShare }}

// profiledMetrics come from the profiled two-client rounds: the core
// spans' simulated time, the program's counters, the profiler's
// attribution and the heap profile.
var profiledMetrics = []roundMetric{
	{"core.lock.sim_ms", "ms", spanSimMS(opLock)},
	{"core.end.sim_ms", "ms", spanSimMS(opEnd)},

	{"simdisk.forced_writes_per_txn", "count", counterPerTxn(stats.ForcedIOs)},
	{"simdisk.page_writes_per_txn", "count", counterPerTxn(stats.DiskWrites)},
	{"simdisk.page_reads_per_txn", "count", counterPerTxn(stats.DiskReads)},
	{"simdisk.data_flush_ms_per_txn", "ms", resourceMS(telemetry.ResDataFlush)},
	modBytesPerTxn("simdisk"),

	{"fs.log_forces_per_txn", "count", func(r *roundResult) float64 {
		// Each log record is a force of its own, except that the
		// group-commit daemon carries its records in one force per
		// batch.
		c := r.counters
		return perTxn(r, float64(c.Get(stats.CoordLogWrites)+c.Get(stats.PrepareLogWrites)-
			c.Get(stats.GroupCommitRecords)+c.Get(stats.GroupCommitBatches)))
	}},
	{"fs.prepare_force_ms_per_txn", "ms", resourceMS(telemetry.ResPrepareForce)},
	{"fs.coord_log_ms_per_txn", "ms", resourceMS(telemetry.ResCoordLog)},
	{"fs.group_commit_records_per_batch", "count", func(r *roundResult) float64 {
		return ratio(r.counters.Get(stats.GroupCommitRecords), r.counters.Get(stats.GroupCommitBatches))
	}},
	modBytesPerTxn("fs"),

	{"shadow.page_diffs_per_txn", "count", counterPerTxn(stats.PageDiffs)},
	{"shadow.bytes_copied_per_txn", "B", counterPerTxn(stats.BytesCopied)},
	{"shadow.inode_writes_per_txn", "count", counterPerTxn(stats.InodeWrites)},
	{"shadow.store_queue_ms_per_txn", "ms", resourceMS(telemetry.ResStoreQueue)},
	modBytesPerTxn("shadow"),

	{"lockmgr.acquires_per_txn", "count", counterPerTxn(stats.LockAcquires)},
	{"lockmgr.waits_per_txn", "count", counterPerTxn(stats.LockWaits)},
	{"lockmgr.denials_per_txn", "count", counterPerTxn(stats.LockDenials)},
	{"lockmgr.lock_wait_ms_per_txn", "ms", resourceMS(telemetry.ResLockWait)},
	modBytesPerTxn("lockmgr"),

	{"cluster.lock_cache_hit_ratio", "ratio", func(r *roundResult) float64 {
		hits := r.counters.Get(stats.LockCacheHits)
		return ratio(hits, hits+r.counters.Get(stats.LockCacheMisses))
	}},
	{"cluster.lock_msgs_per_txn", "count", counterPerTxn(stats.LockMsgs)},
	{"cluster.lease_hits_per_txn", "count", counterPerTxn(stats.LeaseHits)},
	{"cluster.lease_revokes_per_txn", "count", counterPerTxn(stats.LeaseRevokes)},
	modBytesPerTxn("cluster"),

	{"simnet.msgs_per_txn", "count", counterPerTxn(stats.MsgsSent)},
	{"simnet.rpcs_per_txn", "count", counterPerTxn(stats.RPCs)},
	{"simnet.bytes_per_txn", "B", counterPerTxn(stats.BytesSent)},
	{"simnet.network_transit_ms_per_txn", "ms", resourceMS(telemetry.ResNetworkTransit)},
	modBytesPerTxn("simnet"),

	{"tpc.remote_participants_per_txn", "count", counterPerTxn(stats.RemoteParticipants)},
	{"tpc.read_only_votes_per_txn", "count", counterPerTxn(stats.ReadOnlyVotes)},
	{"tpc.one_phase_ratio", "ratio", func(r *roundResult) float64 {
		return ratio(r.counters.Get(stats.OnePhaseCommits), int64(r.commits()))
	}},
	{"tpc.coordinator_queue_ms_per_txn", "ms", resourceMS(telemetry.ResCoordQueue)},
	{"tpc.phase2_apply_ms_per_txn", "ms", resourceMS(telemetry.ResPhase2Apply)},
	modBytesPerTxn("tpc"),

	{"placement.owner_moves", "count", func(r *roundResult) float64 { return float64(r.counters.Get(stats.OwnerMoves)) }},
	{"placement.local_commit_ratio", "ratio", func(r *roundResult) float64 {
		return ratio(r.counters.Get(stats.LocalCommits), int64(r.commits()))
	}},
	{"placement.routed_commit_ratio", "ratio", func(r *roundResult) float64 {
		return ratio(r.counters.Get(stats.RoutedCommits), int64(r.commits()))
	}},
	{"placement.process_migrations", "count", func(r *roundResult) float64 {
		return float64(r.counters.Get(stats.PlacementMigrations))
	}},

	modBytesPerTxn("vtime"),

	{"telemetry.attributed_fraction", "ratio", func(r *roundResult) float64 { return r.profile.AttributedFraction }},
}

// overRounds applies each metric to every round and takes the
// q-quantile of the values.
func overRounds(defs []roundMetric, rounds []*roundResult, q float64) []metric {
	out := make([]metric, len(defs))
	vals := make([]float64, len(rounds))
	for i, d := range defs {
		for j, r := range rounds {
			vals[j] = d.of(r)
		}
		out[i] = metric{d.name, d.unit, percentile(vals, q)}
	}
	return out
}
