// mars-sim runs one fault scenario end-to-end on the simulated fat-tree
// and prints the ranked culprit list with the ground truth highlighted.
//
// The -fault flag accepts a comma-separated list; with more than one kind
// the faults are applied as a Schedule of overlapping injections (each
// drawing from its own seeded RNG) and the diagnosis is scored against
// the episode's root causes. Gray-failure kinds (silent-drop, link-flap,
// link-down, switch-reboot, uplink-degrade) pair naturally with -compound.
//
// Usage:
//
//	mars-sim -fault delay -seed 7 -flows 96 -rate 220 -top 8
//	mars-sim -fault micro-burst
//	mars-sim -fault drop -k 4 -dur 1.5
//	mars-sim -fault delay -codec pintlike
//	mars-sim -fault delay,drop -compound
//	mars-sim -fault link-flap -compound
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mars"
	"mars/internal/faults"
)

func main() {
	def := mars.DefaultScenario(1, mars.FaultDelay)
	var (
		faultList = flag.String("fault", def.Fault.String(), "comma-separated fault scenarios: micro-burst, ecmp-imbalance, process-rate, delay, drop, ctrl-chan, silent-drop, link-flap, link-down, switch-reboot, uplink-degrade")
		seed      = flag.Int64("seed", def.Seed, "random seed (workload, fault target, reservoirs)")
		k         = flag.Int("k", def.K, "fat-tree arity (even)")
		flows     = flag.Int("flows", 0, "background flows (default 12 per edge switch: 96 at k=4)")
		rate      = flag.Float64("rate", def.RatePPS, "per-flow background rate (pps)")
		start     = flag.Float64("start", def.FaultStart.Seconds(), "fault start (s)")
		dur       = flag.Float64("dur", def.FaultDur.Seconds(), "fault duration (s)")
		total     = flag.Float64("total", def.RunFor.Seconds(), "total simulated time (s)")
		top       = flag.Int("top", 8, "culprits to print")
		codec     = flag.String("codec", "", "telemetry codec: mars11 (default), perhop, pintlike, sampled")
		compound  = flag.Bool("compound", false, "enable compound-cause RCA (gray-failure signatures)")
		verbose   = flag.Bool("v", false, "print each diagnosis as it happens and the control-channel byte counters")
	)
	flag.Parse()

	var kinds []mars.FaultKind
	for _, name := range strings.Split(*faultList, ",") {
		kind, err := faults.Parse(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		kinds = append(kinds, kind)
	}

	cfg := mars.Scenario{K: *k, Seed: *seed}.Config()
	cfg.Codec = *codec
	cfg.RCA.CompoundCauses = *compound
	sys, err := mars.NewSystem(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *flows == 0 {
		*flows = 12 * len(sys.FT.EdgeIDs)
	}
	sys.StartBackground(*flows, *rate)
	if *verbose {
		sys.OnDiagnosis = func(d mars.Diagnosis, list []mars.Culprit) {
			fmt.Printf("diagnosis at %v: trigger %v at s%d, %d records, %d culprits\n",
				d.Time, d.Trigger.Kind, d.Trigger.Switch, len(d.Records), len(list))
		}
	}
	sec := func(v float64) mars.Time { return mars.Time(v * float64(mars.Second)) }

	var roots []mars.GroundTruth
	if len(kinds) == 1 {
		roots = []mars.GroundTruth{sys.InjectFault(kinds[0], sec(*start), sec(*dur))}
	} else {
		sched := mars.Schedule{}
		for _, kind := range kinds {
			sched.Injections = append(sched.Injections, mars.Injection{
				Kind: kind, Start: sec(*start), Dur: sec(*dur),
			})
		}
		roots = sys.InjectSchedule(sched).Roots()
	}
	fmt.Printf("topology: K=%d fat-tree (%d switches, %d hosts)\n", *k, sys.FT.NumSwitches(), sys.FT.NumHosts())
	for _, gt := range roots {
		fmt.Printf("injected: %v\n", gt)
	}
	fmt.Println()
	sys.Run(sec(*total))

	fmt.Printf("\nsent=%d delivered=%d dropped=%d\n",
		sys.Sim.Stats.Sent, sys.Sim.Stats.Delivered, sys.Sim.Stats.Dropped)
	if b := sys.Controller.Bytes; *verbose {
		fmt.Printf("control channel: notification %d + collection %d + refresh %d + push %d B are the diagnosis overhead; request %d + ack %d B are not in it\n",
			b.NotificationBytes, b.CollectionBytes, b.RefreshBytes, b.ThresholdPushBytes, b.RequestBytes, b.AckBytes)
	}
	fmt.Printf("telemetry overhead: %d B, diagnosis overhead: %d B\n\n",
		sys.TelemetryOverheadBytes(), sys.DiagnosisOverheadBytes())

	culprits := sys.Culprits()
	if len(culprits) == 0 {
		fmt.Println("no culprits (nothing detected)")
		return
	}
	fmt.Println("ranked culprits:")
	for i, c := range culprits {
		if i >= *top {
			break
		}
		mark := ""
		for _, gt := range roots {
			if mars.Locates(c, gt) {
				mark = "   <== injected"
			}
		}
		fmt.Printf("  #%d %v%s\n", i+1, c, mark)
	}
}
