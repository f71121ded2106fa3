// Drop localization walkthrough: inject probabilistic loss on one port
// and show the drop pipeline at work — count-mismatch and epoch-gap
// evidence, affected-flow classification, and the second SBFL instance
// that ranks the shared location (§4.3.2, §4.4.4 "Drop").
//
//	go run ./examples/droplocalization
package main

import (
	"fmt"

	"mars"
)

func main() {
	sc := mars.DefaultScenario(5, mars.FaultDrop)
	sys, err := mars.NewSystem(sc.Config())
	if err != nil {
		panic(err)
	}
	sys.StartBackground(sc.Flows, sc.RatePPS)

	gt := sys.InjectFault(sc.Fault, sc.FaultStart, sc.FaultDur)
	fmt.Printf("injected: %v\n\n", gt)

	// Observe each diagnosis as it happens.
	sys.OnDiagnosis = func(d mars.Diagnosis, list []mars.Culprit) {
		mismatches := 0
		gaps := 0
		for _, r := range d.Records {
			if r.SourceCount > r.SinkCount+r.SourceCount/4+3 {
				mismatches++
			}
			if r.EpochGap > 0 {
				gaps++
			}
		}
		fmt.Printf("diagnosis at %v (trigger %v at s%d): %d records, %d count mismatches, %d epoch gaps\n",
			d.Time, d.Trigger.Kind, d.Trigger.Switch, len(d.Records), mismatches, gaps)
	}

	sys.Run(sc.RunFor)

	fmt.Println("\nranked culprits:")
	for i, c := range sys.Culprits() {
		if i >= 5 {
			break
		}
		mark := ""
		if c.ContainsSwitch(gt.Switch) {
			mark = "   <-- dropping switch"
		}
		fmt.Printf("  #%d %v%s\n", i+1, c, mark)
	}
}
