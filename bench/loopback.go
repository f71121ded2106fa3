package main

import (
	"fmt"
	"net"
	"time"

	"mars/internal/ctrlchan"
	"mars/internal/deploy"
	"mars/internal/det"
	"mars/internal/topology"
)

// deployLoopback runs the real-socket deployment: one capture of the
// default scenario (k=4 silent drop, 4x time compression), replayed by a
// controller node and four switch-group nodes over loopback UDP sockets
// in this process. It is an open loop: notifications go out on the
// scenario's wall schedule whatever the controller is doing, so the
// operation's wall is the schedule plus the drain, and the number that
// carries information is the collection latency.
//
// The capture is simulated at the scenario's own seed whatever -seed
// says: across simulation seeds the replayed load differs tenfold (6 to
// 85 notifications a second), two seeds in ten rank nothing to
// reproduce, and one in ten does not reproduce its top-1, so a seeded
// capture would be a different workload per seed. -seed drives what is
// random in the live phase instead: the controller's retry jitter and
// reservoir replacement.
type deployLoopback struct {
	env  env
	capt *deploy.Capture

	runs []*deploy.LoopbackResult // traced operations
}

func newDeployLoopback(e env) instance { return &deployLoopback{env: e} }

func (w *deployLoopback) setup() (opResult, error) {
	capt, err := deploy.Build(deploy.DefaultScenario())
	if err != nil {
		return opResult{}, err
	}
	capt.Scenario.Seed = w.env.seed
	w.capt = capt
	return w.op(0, nil)
}

func (w *deployLoopback) op(_ int, tr *tracer) (opResult, error) {
	t0 := now()
	sp := tr.begin("deploy.run_loopback")
	res, err := deploy.RunLoopback(w.capt)
	tr.end(sp)
	wall := now() - t0
	if err != nil {
		return opResult{}, err
	}
	if !res.Top1Match {
		got := "nothing"
		if len(res.Got) > 0 {
			got = deploy.Top1Key(res.Got[0])
		}
		return opResult{}, fmt.Errorf("deployment ranked %s first, the simulator %s", got, deploy.Top1Key(res.Expected[0]))
	}
	r := opResult{
		wall: wall, work: int64(res.NotesSent),
		digest: deploy.Top1Key(res.Got[0]),
		top1:   1, top1Of: 1,
	}
	for _, l := range res.CollectLatencies {
		r.lat = append(r.lat, float64(l)/1e6)
	}
	if tr != nil {
		w.runs = append(w.runs, res)
	}
	return r, nil
}

func (w *deployLoopback) layers(tr *tracer, _ []opResult) (map[string]float64, error) {
	var diags, retries, requestBytes float64
	for _, r := range w.runs {
		diags += float64(r.Diagnoses)
		retries += float64(r.Bytes.Retries)
		requestBytes += float64(r.Bytes.RequestBytes)
	}
	if diags == 0 {
		return nil, fmt.Errorf("no diagnosis completed in %d runs", len(w.runs))
	}
	vals := map[string]float64{
		"controlplane.diagnoses":           float64(w.runs[0].Diagnoses),
		"controlplane.diags_per_run":       diags / float64(len(w.runs)),
		"controlplane.retries_per_diag":    retries / diags,
		"controlplane.request_kb_per_diag": requestBytes / 1024 / diags,
	}

	// Wire format cost over the collect responses the capture's
	// diagnoses would travel as.
	var msgs []ctrlchan.Message
	for i, d := range w.capt.Diags {
		msgs = append(msgs, ctrlchan.Message{
			Kind: ctrlchan.KindCollectResponse, Seq: uint64(i + 1), Switch: d.Trigger.Switch,
			Records: d.Records, Stamp: d.Time,
		})
	}
	const rounds = 200
	var frames [][]byte
	t0 := now()
	for r := 0; r < rounds; r++ {
		frames = frames[:0]
		for i := range msgs {
			frames = append(frames, ctrlchan.EncodeMessage(&msgs[i]))
		}
	}
	encode := now() - t0
	var wire int
	for _, f := range frames {
		wire += len(f)
	}
	t0 = now()
	for r := 0; r < rounds; r++ {
		for _, f := range frames {
			if _, _, err := ctrlchan.DecodeMessage(f); err != nil {
				return vals, fmt.Errorf("decoding an encoded collect response: %w", err)
			}
		}
	}
	decode := now() - t0
	n := float64(rounds * len(msgs))
	vals["ctrlchan.encode_ns_per_msg"] = float64(encode) / n
	vals["ctrlchan.decode_ns_per_msg"] = float64(decode) / n
	vals["ctrlchan.wire_bytes_per_msg"] = float64(wire) / float64(len(msgs))

	largest := msgs[0]
	for _, m := range msgs {
		if len(m.Records) > len(largest.Records) {
			largest = m
		}
	}
	rtt, err := udpRoundTrips(largest, rounds)
	if err != nil {
		return vals, err
	}
	vals["ctrlchan.udp_roundtrip_us_p50"] = quantile(rtt, 0.5)

	stats, err := loopbackTransportStats(w.capt)
	if err != nil {
		return vals, err
	}
	for _, k := range det.Keys(stats) {
		vals[k] = stats[k]
	}
	return vals, nil
}

// udpRoundTrips echoes one message between two UDP transports on the
// loopback interface — fragmentation, the kernel, reassembly, decode,
// twice — with no timers involved, and returns each round trip in
// microseconds. It is the floor under the collection latency: what is
// left of that latency is timeout and backoff policy.
func udpRoundTrips(m ctrlchan.Message, n int) ([]float64, error) {
	listen := func() (*net.UDPConn, error) {
		return net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	}
	ca, err := listen()
	if err != nil {
		return nil, err
	}
	cb, err := listen()
	if err != nil {
		ca.Close()
		return nil, err
	}
	// Both transports hand what they receive to this goroutine, which
	// does the echoing itself: one message in flight, so one slot each.
	atB := make(chan ctrlchan.Message, 1)
	atA := make(chan ctrlchan.Message, 1)
	a := ctrlchan.NewUDP(ca, ctrlchan.UDPConfig{
		Switches: map[topology.NodeID]*net.UDPAddr{m.Switch: cb.LocalAddr().(*net.UDPAddr)},
	}, func(got ctrlchan.Message) { atA <- got })
	defer a.Close()
	b := ctrlchan.NewUDP(cb, ctrlchan.UDPConfig{Controller: ca.LocalAddr().(*net.UDPAddr)},
		func(got ctrlchan.Message) { atB <- got })
	defer b.Close()

	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := now()
		a.Send(ctrlchan.ToSwitch, m, nil)
		for _, hop := range []struct {
			in    chan ctrlchan.Message
			reply *ctrlchan.UDPTransport
		}{{atB, b}, {atA, nil}} {
			select {
			case got := <-hop.in:
				if hop.reply != nil {
					hop.reply.Send(ctrlchan.ToController, got, nil)
				}
			case <-after(2 * time.Second):
				return out, fmt.Errorf("UDP echo %d of %d lost on the loopback interface", i, n)
			}
		}
		out = append(out, float64(now()-t0)/1e3)
	}
	return out, nil
}

// loopbackTransportStats runs the deployment once more, assembled node
// by node as deploy.RunLoopback assembles it, because RunLoopback does
// not expose its transports' counters.
func loopbackTransportStats(c *deploy.Capture) (map[string]float64, error) {
	groups := deploy.GroupSwitches(c.Sys.FT, c.Scenario.Groups)
	conns, pm, err := deploy.AllocatePorts(groups)
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
	ctrl := deploy.NewControllerNode(c, conns[0], swAddrs)
	transports := []*ctrlchan.UDPStats{ctrl.Stats()}
	var nodes []*deploy.SwitchNode
	for i, g := range groups {
		n := deploy.NewSwitchNode(c, g, conns[i+1], ctrlAddr)
		nodes = append(nodes, n)
		transports = append(transports, n.Stats())
	}
	ctrl.Start()
	for _, n := range nodes {
		n.Start()
	}
	sleep(deploy.ReplayDuration(c.Scenario))
	deploy.WaitSettled(ctrl)
	ctrl.Stop()
	for _, n := range nodes {
		n.Stop()
	}

	var frames, fragments, reasm, decodeErrs int64
	for _, st := range transports {
		frames += st.FramesSent.Load()
		fragments += st.FragmentsSent.Load()
		reasm += st.ReasmDropped.Load()
		decodeErrs += st.DecodeErrors.Load()
	}
	return map[string]float64{
		"ctrlchan.frames_sent":         float64(frames),
		"ctrlchan.fragments_per_frame": float64(fragments) / float64(frames),
		"ctrlchan.reasm_dropped":       float64(reasm),
		"ctrlchan.decode_errors":       float64(decodeErrs),
	}, nil
}
