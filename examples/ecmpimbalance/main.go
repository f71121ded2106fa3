// ECMP imbalance walkthrough: skew one switch's equal-cost split and show
// that MARS blames the *upstream* switch doing the skewing, not the
// downstream switch whose queue fills (§4.4.4's s9 → s1 example).
//
//	go run ./examples/ecmpimbalance
package main

import (
	"fmt"

	"mars"
)

func main() {
	sc := mars.DefaultScenario(1259, mars.FaultECMP)
	sys, err := mars.NewSystem(sc.Config())
	if err != nil {
		panic(err)
	}
	sys.StartBackground(sc.Flows, sc.RatePPS)

	gt := sys.InjectFault(sc.Fault, sc.FaultStart, sc.FaultDur)
	fmt.Printf("injected: %v\n", gt)
	fmt.Printf("(the skewed switch is s%d; congestion builds at its heavy next hop)\n\n", gt.Switch)

	sys.Run(sc.RunFor)

	fmt.Println("ranked culprits:")
	for i, c := range sys.Culprits() {
		if i >= 6 {
			break
		}
		mark := ""
		if c.ContainsSwitch(gt.Switch) {
			mark = "   <-- skewing switch"
		}
		fmt.Printf("  #%d %v%s\n", i+1, c, mark)
	}
}
