package ctrlchan

import (
	"testing"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// newSim builds a minimal one-switch simulator; the channel only needs the
// event heap, no packets ever cross this topology.
func newSim(t *testing.T, seed int64) *netsim.Simulator {
	t.Helper()
	b := topology.NewBuilder()
	b.AddSwitch("s0", topology.LayerEdge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return netsim.New(topo, nil, nil, netsim.DefaultConfig(), seed)
}

func TestPerfectChannelDeliversSynchronously(t *testing.T) {
	sim := newSim(t, 1)
	ch := New(sim, Config{Seed: 1})
	delivered := 0
	ch.Send(ToController, Message{Kind: KindNotification, Wire: 24}, func(m Message) {
		delivered++
		if m.Wire != 24 {
			t.Errorf("wire = %d", m.Wire)
		}
	})
	// The zero config is perfect: delivery happens inline, before Send
	// returns, with no event-heap involvement — and therefore no change to
	// any seeded experiment's event stream.
	if delivered != 1 {
		t.Fatalf("perfect channel delivered %d times before Send returned, want 1", delivered)
	}
	sim.RunAll()
	if delivered != 1 {
		t.Errorf("perfect channel delivered %d times, want 1", delivered)
	}
}

func TestFullLossDropsEverything(t *testing.T) {
	sim := newSim(t, 2)
	ch := New(sim, Config{ToSwitch: DirConfig{Loss: 1}, Seed: 2})
	n := 0
	for i := 0; i < 10; i++ {
		ch.Send(ToSwitch, Message{Kind: KindCollectRequest, Wire: 16}, func(Message) { n++ })
	}
	sim.Run(netsim.Second)
	if n != 0 {
		t.Errorf("%d messages survived loss=1", n)
	}
	// SetLoss back to zero makes the direction perfect again.
	ch.SetLoss(ToSwitch, 0)
	ok := false
	ch.Send(ToSwitch, Message{Kind: KindCollectRequest}, func(Message) { ok = true })
	if !ok {
		t.Error("recovered direction did not deliver synchronously")
	}
}

func TestDuplicationDeliversTwice(t *testing.T) {
	sim := newSim(t, 3)
	ch := New(sim, Config{
		ToController: DirConfig{Latency: netsim.Millisecond, DupProb: 1},
		Seed:         3,
	})
	n := 0
	ch.Send(ToController, Message{Kind: KindThresholdAck, Wire: 12}, func(Message) { n++ })
	sim.Run(netsim.Second)
	if n != 2 {
		t.Errorf("deliveries = %d, want 2 (dup prob 1)", n)
	}
}

func TestJitterReordersBackToBackSends(t *testing.T) {
	sim := newSim(t, 4)
	ch := New(sim, Config{
		ToSwitch: DirConfig{Latency: netsim.Millisecond, Jitter: 5 * netsim.Millisecond},
		Seed:     4,
	})
	var order []uint64
	for i := uint64(1); i <= 30; i++ {
		m := Message{Kind: KindThresholdPush, Seq: i}
		ch.Send(ToSwitch, m, func(got Message) { order = append(order, got.Seq) })
	}
	sim.Run(netsim.Second)
	if len(order) != 30 {
		t.Fatalf("delivered %d of 30", len(order))
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("30 back-to-back sends under 5ms jitter arrived in order; jitter not applied")
	}
}

func TestLossyChannelIsDeterministic(t *testing.T) {
	run := func() []uint64 {
		sim := newSim(t, 7)
		ch := New(sim, Lossy(0.3, 99))
		var order []uint64
		for i := uint64(1); i <= 200; i++ {
			d := ToController
			if i%2 == 0 {
				d = ToSwitch
			}
			m := Message{Kind: KindNotification, Seq: i, Wire: 24}
			at := netsim.Time(i) * 100 * netsim.Microsecond
			sim.At(at, func() {
				ch.Send(d, m, func(got Message) { order = append(order, got.Seq) })
			})
		}
		sim.Run(netsim.Second)
		return order
	}
	o1, o2 := run(), run()
	if len(o1) != len(o2) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("same seed, different delivery order at %d: %d vs %d", i, o1[i], o2[i])
		}
	}
	seen := make(map[uint64]bool)
	for _, seq := range o1 {
		seen[seq] = true
	}
	if len(seen) == 200 {
		t.Error("200 sends at 30% loss lost nothing; fault model inert")
	}
}

func TestLossyConfigShape(t *testing.T) {
	cfg := Lossy(0.1, 5)
	for _, d := range []DirConfig{cfg.ToController, cfg.ToSwitch} {
		if d.Loss != 0.1 || d.Latency != netsim.Millisecond || d.Jitter == 0 {
			t.Errorf("dir config = %+v", d)
		}
		if d.perfect() {
			t.Error("lossy direction reported perfect")
		}
	}
	if (DirConfig{}).perfect() != true {
		t.Error("zero DirConfig must be perfect")
	}
}

// A kind this build does not know — a newer peer's, a corrupt frame's —
// must not print as one it does.
func TestKindStringNamesUnknownKinds(t *testing.T) {
	if got := KindThresholdAck.String(); got != "threshold-ack" {
		t.Errorf("KindThresholdAck = %q", got)
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Errorf("Kind(200) = %q, want Kind(200)", got)
	}
}

// TestChannelCopiesWhatItHolds: a sender lends a Message's slices only for
// Send, so a delivery the channel makes later — and its duplicate — carries
// what was sent even after the sender has overwritten its storage.
func TestChannelCopiesWhatItHolds(t *testing.T) {
	sim := newSim(t, 3)
	ch := New(sim, Config{ToController: DirConfig{Latency: netsim.Millisecond, DupProb: 1}, Seed: 3})
	recs := []dataplane.RTRecord{{Epoch: 1}, {Epoch: 2}}
	ths := []Threshold{{Value: 7}}
	var got []Message
	ch.Send(ToController, Message{Kind: KindCollectResponse, Records: recs, Thresholds: ths}, func(m Message) { got = append(got, m) })
	recs[0].Epoch, ths[0].Value = 99, 99
	sim.RunAll()
	if len(got) != 2 {
		t.Fatalf("delivered %d times, want the message and its duplicate", len(got))
	}
	for _, m := range got {
		if m.Records[0].Epoch != 1 || m.Records[1].Epoch != 2 || m.Thresholds[0].Value != 7 {
			t.Fatalf("a held delivery carries %+v and %+v, not what was sent", m.Records, m.Thresholds)
		}
	}
}
