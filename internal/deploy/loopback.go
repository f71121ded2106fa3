package deploy

import (
	"fmt"
	"sort"
	"time"

	"mars/internal/controlplane"
	"mars/internal/netsim"
	"mars/internal/rca"
)

// LoopbackResult summarizes one complete loopback deployment run.
type LoopbackResult struct {
	// Expected is the simulator's merged culprit ranking; Got the
	// deployment's. Top1Match is the run's verdict.
	Expected  []rca.Culprit
	Got       []rca.Culprit
	Top1Match bool
	// Diagnoses counts finalized collections; NotesSent replayed
	// notifications across all switch nodes.
	Diagnoses int
	NotesSent int
	// WallSeconds is the wall-clock duration of the live phase.
	WallSeconds float64
	// CollectLatencies are per-diagnosis trigger→finalize wall latencies.
	CollectLatencies []netsim.Time
	// Bytes is the run's control-channel accounting: the controller's
	// counters plus each switch node's agent's.
	Bytes controlplane.BandwidthStats
}

// AddSwitch folds in what one switch node counted: the notifications it
// replayed and the bytes its agent sent.
func (r *LoopbackResult) AddSwitch(n *SwitchNode) {
	notes, _, b := n.Counts()
	r.NotesSent += notes
	r.Bytes.NotificationBytes += b.NotificationBytes
	r.Bytes.CollectionBytes += b.CollectionBytes
	r.Bytes.RefreshBytes += b.RefreshBytes
	r.Bytes.AckBytes += b.AckBytes
}

// Verdict renders the run's top-1 comparison: the deployment's and the
// simulator's first culprit ("<none>" for an empty ranking) and whether
// they match.
func (r *LoopbackResult) Verdict() string {
	top1 := func(cs []rca.Culprit) string {
		if len(cs) == 0 {
			return "<none>"
		}
		return Top1Key(cs[0])
	}
	return fmt.Sprintf("top-1 got=%s want=%s match=%v", top1(r.Got), top1(r.Expected), r.Top1Match)
}

// MeanCollectMs returns the mean collection latency in milliseconds (0
// when no diagnosis completed).
func (r *LoopbackResult) MeanCollectMs() float64 { return latMs(r.CollectLatencies, 0.0) }

// P95CollectMs returns the 95th-percentile collection latency in
// milliseconds.
func (r *LoopbackResult) P95CollectMs() float64 { return latMs(r.CollectLatencies, 0.95) }

// latMs reduces latencies to the mean (q=0) or the q-quantile, in ms.
func latMs(lats []netsim.Time, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	if q == 0 {
		var sum netsim.Time
		for _, l := range lats {
			sum += l
		}
		return float64(sum) / float64(len(lats)) / 1e6
	}
	s := append([]netsim.Time(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return float64(s[idx]) / 1e6
}

// DiagnosesPerSec is the deployment's sustained diagnosis rate.
func (r *LoopbackResult) DiagnosesPerSec() float64 {
	if r.WallSeconds <= 0 {
		return 0
	}
	return float64(r.Diagnoses) / r.WallSeconds
}

// ReplayDuration is the wall-clock length of a scenario's live phase.
func ReplayDuration(sc Scenario) time.Duration {
	return time.Duration(float64(sc.RunFor) * sc.Scale)
}

// WaitSettled blocks until ctrl's run has settled (ControllerNode.settle)
// and reports true, or until the backstop, the replay plus 2 s from
// ctrl.Start, passes first and reports false.
func WaitSettled(ctrl *ControllerNode) (quiet bool) {
	bound := time.NewTimer(time.Until(ctrl.started.Add(ReplayDuration(ctrl.cap.Scenario) + 2*time.Second))) //mars:wallclock backstop of the deployment's live phase
	defer bound.Stop()
	select {
	case <-ctrl.settled:
		return true
	case <-bound.C:
		return false
	}
}

// RunLoopback executes a complete deployment run inside one process:
// controller node plus one switch node per group, each on its own
// loopback UDP socket, replaying the capture in scaled real time. It
// blocks until the run settles (WaitSettled) and tears everything down
// before returning.
func RunLoopback(c *Capture) (*LoopbackResult, error) {
	groups := GroupSwitches(c.Sys.FT, c.Scenario.Groups)
	conns, pm, err := AllocatePorts(groups)
	if err != nil {
		return nil, err
	}
	swAddrs, err := pm.SwitchAddrs()
	if err != nil {
		return nil, err
	}
	ctrlAddr, err := pm.ControllerAddr()
	if err != nil {
		return nil, err
	}
	ctrl := NewControllerNode(c, conns[0], swAddrs)
	var nodes []*SwitchNode
	for i, g := range groups {
		nodes = append(nodes, NewSwitchNode(c, g, conns[i+1], ctrlAddr))
	}
	defer func() {
		ctrl.Stop()
		for _, n := range nodes {
			n.Stop()
		}
	}()

	start := time.Now() //mars:wallclock the deployment's live phase is wall-clock by nature
	ctrl.Start()
	for _, n := range nodes {
		n.Start()
	}
	WaitSettled(ctrl)
	wall := time.Since(start).Seconds() //mars:wallclock the deployment's live phase is wall-clock by nature

	res := ctrl.Result(wall)
	for _, n := range nodes {
		res.AddSwitch(n)
	}
	return res, nil
}
