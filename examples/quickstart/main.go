// Quickstart: bring up a MARS deployment on a simulated K=4 fat-tree,
// inject a switch-level delay fault, and print the ranked culprit list.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"mars"
)

func main() {
	// The default scenario is Table 1's trial: a cross-pod background
	// mesh, and a fault injected once the thresholds have calibrated. A
	// delay fault slows every packet through a random switch (a
	// Chaosblade-style interface fault).
	sc := mars.DefaultScenario(42, mars.FaultDelay)
	sys, err := mars.NewSystem(sc.Config())
	if err != nil {
		panic(err)
	}
	sys.StartBackground(sc.Flows, sc.RatePPS)
	gt := sys.InjectFault(sc.Fault, sc.FaultStart, sc.FaultDur)
	fmt.Printf("injected: %v\n\n", gt)

	sys.Run(sc.RunFor)

	fmt.Printf("diagnoses collected: %d\n", len(sys.Diagnoses))
	fmt.Printf("telemetry overhead:  %d B on links\n", sys.TelemetryOverheadBytes())
	fmt.Printf("diagnosis overhead:  %d B on the control channel\n\n", sys.DiagnosisOverheadBytes())

	fmt.Println("ranked culprits:")
	for i, c := range sys.Culprits() {
		if i >= 5 {
			break
		}
		mark := ""
		if c.ContainsSwitch(gt.Switch) {
			mark = "   <-- injected fault"
		}
		fmt.Printf("  #%d %v%s\n", i+1, c, mark)
	}
}
