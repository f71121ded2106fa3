package controlplane

import (
	"slices"
	"testing"

	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
	"mars/internal/workload"
)

// dropFirst is a Channel that loses the first n requests of one kind to
// one switch, so a retry scenario is exact rather than probabilistic.
type dropFirst struct {
	*ctrlchan.Channel
	kind ctrlchan.Kind
	sw   topology.NodeID
	n    int
	// sent counts the matching attempts the controller made.
	sent int
}

func (d *dropFirst) Send(dir ctrlchan.Direction, m ctrlchan.Message, deliver func(ctrlchan.Message)) {
	if dir == ctrlchan.ToSwitch && m.Kind == d.kind && m.Switch == d.sw {
		d.sent++
		if d.sent <= d.n {
			return
		}
	}
	d.Channel.Send(dir, m, deliver)
}

// countingClock counts the timers the controller arms.
type countingClock struct {
	*netsim.Simulator
	afters int
}

func (c *countingClock) After(d netsim.Time, fn func()) {
	c.afters++
	c.Simulator.After(d, fn)
}

// reqHarness is a controller that is never Started: the only exchanges on
// its channel are the ones a test kicks off. One flow has already left ten
// records in sw's Ring Table.
type reqHarness struct {
	ctrl  *Controller
	agent *Agent
	prog  *dataplane.Program
	clock *countingClock
	tr    *dropFirst
	sw    topology.NodeID // the sink edge switch the drops target
	flow  dataplane.FlowID
	diags []Diagnosis
}

func newReqHarness(t *testing.T, kind ctrlchan.Kind, chCfg ctrlchan.Config, drop int) *reqHarness {
	t.Helper()
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dataplane.DefaultProgramConfig()
	table, err := pathid.BuildTable(dcfg.PathCfg, ft.Topology, ft.AllEdgePairPaths())
	if err != nil {
		t.Fatal(err)
	}
	prog := dataplane.New(dcfg, ft.Topology, table, nil)
	sim := netsim.New(ft.Topology, netsim.NewECMPRouter(ft.Topology, 41), prog, netsim.DefaultConfig(), 41)

	src, dst := ft.HostIDs[0], ft.HostIDs[8]
	srcEdge, _ := ft.EdgeSwitchOf(src)
	sink, _ := ft.EdgeSwitchOf(dst)
	h := &reqHarness{
		clock: &countingClock{Simulator: sim},
		tr:    &dropFirst{Channel: ctrlchan.New(sim, chCfg), kind: kind, sw: sink, n: drop},
		sw:    sink,
		flow:  dataplane.FlowID{Src: srcEdge, Sink: sink},
		prog:  prog,
	}
	h.ctrl = New(DefaultConfig(), h.clock, ft.Topology, h.tr)
	h.ctrl.OnDiagnosis = func(d Diagnosis) { h.diags = append(h.diags, d) }
	h.agent = attachAgent(h.ctrl, prog, h.tr)

	f := &workload.Flow{Src: src, Dst: dst, Key: 1, RatePPS: 100,
		Gaps: workload.GapConstant, Start: 0, Stop: netsim.Second}
	f.Install(sim)
	sim.Run(2 * netsim.Second)
	if len(h.diags) != 0 || h.clock.afters != 0 {
		t.Fatalf("healthy warm-up disturbed the controller: %d diagnoses, %d timers", len(h.diags), h.clock.afters)
	}
	return h
}

// run lets every timeout, backoff and delivery of the exchange play out.
func (h *reqHarness) run() { h.clock.Run(h.clock.Now() + netsim.Second) }

// Refresh pulls, collections and threshold pushes are three kinds of one
// request lifecycle: on a synchronous lossless channel none arms a timer;
// lost attempts are retried, each counted once, until the exchange
// completes; and a spent budget leaves each kind in its own give-up state.
func TestRequestLifecycleAcrossKinds(t *testing.T) {
	const want = 5 * netsim.Millisecond
	missing := func(d Diagnosis, sw topology.NodeID) bool {
		for _, m := range d.MissingSinks {
			if m == sw {
				return true
			}
		}
		return false
	}
	kinds := []struct {
		name  string
		kind  ctrlchan.Kind
		start func(h *reqHarness)
		// done checks a completed exchange.
		done func(t *testing.T, h *reqHarness)
		// gaveUp checks the state an exhausted budget leaves, and that
		// the kind's next trigger tries the switch again (start is called
		// once more after it).
		gaveUp func(t *testing.T, h *reqHarness)
	}{
		{
			name:  "refresh",
			kind:  ctrlchan.KindRefreshRequest,
			start: func(h *reqHarness) { h.ctrl.Refresh() },
			done: func(t *testing.T, h *reqHarness) {
				records := int64(len(h.prog.RTSnapshot(nil, h.sw)))
				if got := h.ctrl.ReservoirFor(h.flow).Accepted; got != records || records == 0 {
					t.Errorf("reservoir accepted %d of the sink's %d records, want each once", got, records)
				}
				if h.ctrl.lastSeen[h.sw] == 0 || h.ctrl.refreshPending[h.sw] {
					t.Errorf("watermark %v, pending %v after the pull completed", h.ctrl.lastSeen[h.sw], h.ctrl.refreshPending[h.sw])
				}
			},
			gaveUp: func(t *testing.T, h *reqHarness) {
				if h.ctrl.lastSeen[h.sw] != 0 || h.ctrl.refreshPending[h.sw] {
					t.Errorf("watermark %v, pending %v after giving up; the next round must be free to pull from 0",
						h.ctrl.lastSeen[h.sw], h.ctrl.refreshPending[h.sw])
				}
			},
		},
		{
			name: "collect",
			kind: ctrlchan.KindCollectRequest,
			start: func(h *reqHarness) {
				h.agent.Notify(dataplane.Notification{Kind: dataplane.NotifyHighLatency, Time: h.clock.Now()})
			},
			done: func(t *testing.T, h *reqHarness) {
				if len(h.diags) == 0 {
					t.Fatal("no diagnosis")
				}
				d := h.diags[len(h.diags)-1]
				if d.Partial() || d.Coverage() != 1 || len(d.Records) == 0 {
					t.Errorf("diagnosis missing %v, coverage %v, %d records; want the full collection", d.MissingSinks, d.Coverage(), len(d.Records))
				}
			},
			gaveUp: func(t *testing.T, h *reqHarness) {
				if len(h.diags) != 1 {
					t.Fatalf("diagnoses = %d, want 1 (partial, not stalled)", len(h.diags))
				}
				if d := h.diags[0]; !missing(d, h.sw) || len(d.MissingSinks) != 1 || d.Coverage() >= 1 {
					t.Errorf("diagnosis missing %v with coverage %v, want exactly s%d missing", d.MissingSinks, d.Coverage(), h.sw)
				}
			},
		},
		{
			name:  "push",
			kind:  ctrlchan.KindThresholdPush,
			start: func(h *reqHarness) { h.ctrl.pushThresholds([]ctrlchan.Threshold{{Flow: h.flow, Value: want}}) },
			done: func(t *testing.T, h *reqHarness) {
				if sp := h.ctrl.pushes[h.sw]; len(sp.unacked) != 0 || sp.inFlight || h.ctrl.flows[h.flow].want != want {
					t.Errorf("s%d push state %+v, want %v acknowledged", h.sw, *sp, want)
				}
			},
			gaveUp: func(t *testing.T, h *reqHarness) {
				unacked := []ctrlchan.Threshold{{Flow: h.flow, Value: want}}
				if sp := h.ctrl.pushes[h.sw]; !slices.Equal(sp.unacked, unacked) || sp.inFlight {
					t.Errorf("s%d push state %+v after giving up, want %v unacknowledged and idle", h.sw, *sp, unacked)
				}
			},
		},
	}
	delayed := ctrlchan.Config{
		ToController: ctrlchan.DirConfig{Latency: netsim.Millisecond},
		ToSwitch:     ctrlchan.DirConfig{Latency: netsim.Millisecond},
	}
	budget := DefaultConfig().MaxRetries

	for _, k := range kinds {
		k := k
		t.Run(k.name+"/lossless", func(t *testing.T) {
			h := newReqHarness(t, k.kind, ctrlchan.Config{}, 0)
			k.start(h)
			k.done(t, h) // a perfect channel answers inside the call
			if h.clock.afters != 0 || h.ctrl.Bytes.Retries != 0 || len(h.ctrl.outstanding) != 0 {
				t.Errorf("lossless exchange armed %d timers, %d retries, %d left outstanding",
					h.clock.afters, h.ctrl.Bytes.Retries, len(h.ctrl.outstanding))
			}
		})
		t.Run(k.name+"/retried", func(t *testing.T) {
			const lost = 2
			h := newReqHarness(t, k.kind, delayed, lost)
			k.start(h)
			h.run()
			k.done(t, h)
			if h.ctrl.Bytes.Retries != lost || h.tr.sent != lost+1 || len(h.ctrl.outstanding) != 0 {
				t.Errorf("%d attempts lost: %d retries counted, %d attempts sent, %d left outstanding",
					lost, h.ctrl.Bytes.Retries, h.tr.sent, len(h.ctrl.outstanding))
			}
		})
		t.Run(k.name+"/exhausted", func(t *testing.T) {
			h := newReqHarness(t, k.kind, delayed, budget+1)
			k.start(h)
			h.run()
			k.gaveUp(t, h)
			if h.ctrl.Bytes.Retries != int64(budget) || h.tr.sent != budget+1 || len(h.ctrl.outstanding) != 0 {
				t.Fatalf("budget %d: %d retries counted, %d attempts sent, %d left outstanding",
					budget, h.ctrl.Bytes.Retries, h.tr.sent, len(h.ctrl.outstanding))
			}
			// The kind's next trigger reaches the switch again — for a
			// push, even though the wanted value did not change.
			if k.kind == ctrlchan.KindCollectRequest {
				h.clock.Run(h.clock.Now() + h.ctrl.Cfg.ResponseWindow)
			}
			k.start(h)
			h.run()
			if h.tr.sent != budget+2 {
				t.Fatalf("next trigger sent %d attempts to s%d, want exactly one more", h.tr.sent-(budget+1), h.sw)
			}
			k.done(t, h)
		})
	}
}
