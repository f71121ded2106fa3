package main

import (
	"slices"
	"time"
)

// The benchmark's host is a small guest on a shared machine. For seconds
// to minutes at a time everything on it runs 10-40 % slower, in bursts
// and in plateaus, and raw times of one binary on one input then spread
// past the widest regression bound (README, "Noise"). The speedometer
// measures that state where it bites: it times a fixed computation, the
// probe, before and after every operation and about every probeEvery
// inside the long ones, and the harness scales the operation's times by
// probeNominal over the mean of those probes. An end-to-end time is
// therefore the time on a machine on which the probe takes probeNominal,
// which is what this box does when its neighbours are quiet.
//
// The probe calls nothing of the program under test and allocates
// nothing, so no change to the program can move it; it mixes what the
// workloads mix (dependent loads over a table larger than L2, a sort,
// map updates), so that contention slows both alike.
const (
	probeNominal = 4 * time.Millisecond
	probeEvery   = 200 * time.Millisecond
)

var (
	probeTable [1 << 18]uint64
	probeSort  [20000]uint64
	probeMap   = func() map[uint32]uint32 {
		m := make(map[uint32]uint32, 4096)
		for i := uint32(0); i < 4096; i++ {
			m[i] = i
		}
		return m
	}()
	probeSink uint64 // keeps the compiler from dropping the kernel
)

func probeKernel() {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 300000; i++ {
		probeTable[next()%uint64(len(probeTable))] += x
	}
	for i := range probeSort {
		probeSort[i] = next()
	}
	slices.Sort(probeSort[:])
	for i := 0; i < 100000; i++ {
		probeMap[uint32(next())%4096]++
	}
	probeSink += probeSort[len(probeSort)/2] + x
}

// speedometer accumulates probe readings. A probe's reading is its own
// duration, so the mean reading over an interval is the probe time spent
// in it over the probes taken. A nil *speedometer is a workload paced by
// real clocks, whose times are not scaled: every method is a no-op.
type speedometer struct {
	last  time.Duration // when the latest probe ended
	spent time.Duration // total time inside probes
	n     int
}

func (s *speedometer) probe(tr *tracer) {
	if s == nil {
		return
	}
	sp := tr.begin("bench.probe")
	t0 := now()
	probeKernel()
	s.last = now()
	s.spent += s.last - t0
	s.n++
	tr.end(sp)
}

// tick is what an operation calls between its steps: it probes if the
// latest probe is older than probeEvery. The operation subtracts the
// probe time (probed) from the walls it reports.
func (s *speedometer) tick(tr *tracer) {
	if s != nil && now()-s.last >= probeEvery {
		s.probe(tr)
	}
}

// probed is the total time spent inside probes so far.
func (s *speedometer) probed() time.Duration {
	if s == nil {
		return 0
	}
	return s.spent
}

// reading is the speedometer's state now, for scaleSince later.
func (s *speedometer) reading() speedometer {
	if s == nil {
		return speedometer{}
	}
	return *s
}

// scaleSince is the factor that takes times measured since the reading
// from to the nominal machine: below 1 when the machine was slow.
func (s *speedometer) scaleSince(from speedometer) float64 {
	if s == nil || s.n == from.n {
		return 1
	}
	mean := float64(s.spent-from.spent) / float64(s.n-from.n)
	return float64(probeNominal) / mean
}
