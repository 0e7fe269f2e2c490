package main

import (
	"runtime"
	"runtime/metrics"
	"strings"
)

// heapProfile is the runtime's heap profile: cumulative bytes allocated
// at each allocation stack.
type heapProfile map[[32]uintptr]int64

// readHeapProfile returns the heap profile as of now.  The runtime
// publishes an allocation in the profile only when a GC cycle completes,
// so it runs one first.  Every allocation is in the profile only while
// runtime.MemProfileRate is 1.
func readHeapProfile() heapProfile {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	p := make(heapProfile, n)
	for _, r := range recs[:n] {
		p[r.Stack0] += r.AllocBytes
	}
	return p
}

// internalPrefix is the import path prefix of the program's modules.
const internalPrefix = "repro/internal/"

// byModule charges the bytes allocated since before to modules: each
// stack goes to its innermost frame in a repro/internal/<module>
// package, so runtime and standard-library frames count for the module
// that called them.  out is the bytes of stacks with no such frame (the
// benchmark's own code and the runtime alone).
func (p heapProfile) byModule(before heapProfile) (mods map[string]int64, out int64) {
	mods = map[string]int64{}
	for stk, b := range p {
		b -= before[stk]
		if b <= 0 {
			continue
		}
		if m := innermostModule(stk); m != "" {
			mods[m] += b
		} else {
			out += b
		}
	}
	return mods, out
}

// innermostModule returns the module of the innermost repro/internal
// frame of stk, or "" when it has none.
func innermostModule(stk [32]uintptr) string {
	n := 0
	for n < len(stk) && stk[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(stk[:n])
	for {
		f, more := frames.Next()
		if rest, ok := strings.CutPrefix(f.Function, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
		if !more {
			return ""
		}
	}
}

// cpuSample holds the runtime's cumulative CPU accounting.  The runtime
// updates it at each GC cycle.
type cpuSample struct{ gc, total, idle float64 }

// cpuMetrics are read into one reused slice, so a reading allocates
// nothing inside a measured window.
var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readCPU() cpuSample {
	metrics.Read(cpuMetrics)
	return cpuSample{cpuMetrics[0].Value.Float64(), cpuMetrics[1].Value.Float64(), cpuMetrics[2].Value.Float64()}
}

// gcShareSince is the GC's share of the non-idle CPU time since s0.
func (s cpuSample) gcShareSince(s0 cpuSample) float64 {
	busy := (s.total - s.idle) - (s0.total - s0.idle)
	if busy <= 0 {
		return 0
	}
	return (s.gc - s0.gc) / busy
}
