// Micro-burst walkthrough: inject a >1000 pps transient flow, watch the
// dynamic thresholds flag the congestion, and see the flow-level culprit
// in the diagnosis. Also prints per-epoch telemetry of the offending flow
// so the burst signature is visible.
//
//	go run ./examples/microburst
package main

import (
	"fmt"

	"mars"
	"mars/internal/det"
)

func main() {
	sc := mars.DefaultScenario(2, mars.FaultMicroBurst)
	sys, err := mars.NewSystem(sc.Config())
	if err != nil {
		panic(err)
	}
	sys.StartBackground(sc.Flows, sc.RatePPS)

	gt := sys.InjectFault(sc.Fault, sc.FaultStart, sc.FaultDur)
	fmt.Printf("injected: %v\n", gt)
	burstFlow := mars.FlowID{Src: gt.BurstSrcEdge, Sink: gt.BurstSinkEdge}

	sys.Run(sc.RunFor)

	// Show the burst flow's per-epoch source counts from the collected
	// telemetry: the spike is what the micro-burst signature matches.
	counts := map[uint32]uint32{}
	for _, d := range sys.Diagnoses {
		for _, r := range d.Records {
			if r.Flow == burstFlow && r.SourceCount > counts[r.Epoch] {
				counts[r.Epoch] = r.SourceCount
			}
		}
	}
	fmt.Println("\nburst flow per-epoch packet counts (100 ms epochs):")
	for _, e := range det.Keys(counts) {
		bar := ""
		for i := uint32(0); i < counts[e]/10; i++ {
			bar += "#"
		}
		fmt.Printf("  epoch %3d %4d %s\n", e, counts[e], bar)
	}

	fmt.Println("\nranked culprits:")
	for i, c := range sys.Culprits() {
		if i >= 5 {
			break
		}
		mark := ""
		if c.Flow == burstFlow && c.Level.String() == "flow" {
			mark = "   <-- the burst flow"
		}
		fmt.Printf("  #%d %v%s\n", i+1, c, mark)
	}
}
