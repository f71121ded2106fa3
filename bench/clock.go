package main

import (
	"runtime"
	"time"
)

// Every wall-clock read of the benchmark goes through this file, so the
// repo's determinism lint has exactly one place to excuse: closures the
// bench installs on simulator callbacks (notifier, miner and diagnosis
// wrappers) are reachable from the deterministic roots, and they may
// time the program but never feed a reading back into it.

var processStart = time.Now() //mars:wallclock the benchmark measures host time by definition

// now is the monotonic host time since process start.
func now() time.Duration {
	return time.Since(processStart) //mars:wallclock the benchmark measures host time by definition
}

// sleep blocks for d of host time (the loopback replay is paced by the
// wall clock).
func sleep(d time.Duration) {
	time.Sleep(d) //mars:wallclock the open-loop deploy workload replays on a wall schedule
}

// heap is a point reading of the allocator's cumulative counters.
type heap struct{ bytes, objects uint64 }

func readHeap() heap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heap{m.TotalAlloc, m.Mallocs}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// after is the wall-clock timeout channel of the UDP echo probe.
func after(d time.Duration) <-chan time.Time {
	return time.After(d) //mars:wallclock a lost datagram must not hang the benchmark
}
