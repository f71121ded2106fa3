package ctrlchan

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// reasmStepBytes is one FuzzReassembly step: flags, id, index, count,
// payload length. An input is read up to reasmMaxSteps: a step can cost a
// 4 MiB frame buffer, and longer sequences find nothing shorter ones do
// not.
const (
	reasmStepBytes = 8
	reasmMaxSteps  = 128
)

// Step flags. The low two bits pick one of three hostile senders.
const (
	stepHonest = 1 << 7 // first feed the next fragment of the honest frame in flight
	stepSpoof  = 1 << 6 // send from the honest address, at the honest frame's id, announcing a different count
	stepClock  = 1 << 5 // first advance the clock by the payload-length field, in milliseconds
	stepRepeat = 1 << 4 // feed the honest fragment twice (an overlapping index)
)

// reasmStep renders one step for the seed corpus.
func reasmStep(flags, id uint8, index, count, length uint16) []byte {
	b := []byte{flags, id, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint16(b[2:4], index)
	binary.BigEndian.PutUint16(b[4:6], count)
	binary.BigEndian.PutUint16(b[6:8], length)
	return b
}

// reasmSeeds is FuzzReassembly's seed corpus by name, as checked in under
// testdata/fuzz (TestWriteSeedCorpus regenerates the files).
func reasmSeeds() map[string][]byte {
	cat := func(steps ...[]byte) []byte { return bytes.Join(steps, nil) }
	return map[string][]byte{
		"honest-frame": cat(reasmStep(stepHonest, 0, 0, 2, 4), reasmStep(stepHonest, 1, 0, 2, 4), reasmStep(stepHonest, 2, 0, 2, 4)),
		"absurd-totals": cat(reasmStep(0, 1, 0, 65535, 1), reasmStep(1, 1, 65534, 65535, 2047), reasmStep(2, 2, 0, 65535, 0),
			reasmStep(stepHonest|stepRepeat, 3, 0, 3, 9), reasmStep(stepHonest, 3, 1, 3, 9), reasmStep(stepHonest, 3, 2, 3, 9)),
		"overlap-and-recount": cat(reasmStep(0, 7, 1, 4, 100), reasmStep(0, 7, 1, 4, 50), reasmStep(0, 7, 1, 5, 100), reasmStep(0, 7, 0, 5, 100)),
		"spoofed-recount": cat(reasmStep(stepHonest, 0, 0, 2, 4), reasmStep(stepHonest|stepSpoof, 0, 0, 5, 4),
			reasmStep(stepHonest, 0, 0, 2, 4), reasmStep(stepHonest, 0, 0, 2, 4)),
		// The clock steps past reasmTTL between two honest fragments.
		"ttl-race": cat(reasmStep(stepHonest, 0, 0, 9, 1), reasmStep(stepHonest|stepClock, 4, 3, 9, 2001),
			reasmStep(stepHonest, 0, 0, 9, 1), reasmStep(stepHonest, 0, 0, 9, 1)),
		"bad-index-zero-count": cat(reasmStep(0, 1, 9, 2, 1), reasmStep(0, 1, 0, 0, 1)),
	}
}

// FuzzReassembly feeds onFragment a sequence of hostile fragments — any
// id, index, count and length, payloads that can never open a frame —
// interleaved with whole honest frames from another address. Whatever the
// sequence: no panic; incomplete frames never hold more than their bound,
// and the accounting matches what is held; every delivered Message is one an
// honest sender fragmented, bit for bit; and an honest frame that nothing
// disturbed (no spoofed fragment at its id, no clock step, no drop while it
// was in flight) is delivered.
func FuzzReassembly(f *testing.F) {
	for _, seed := range reasmSeeds() {
		f.Add(seed)
	}

	// The honest traffic: two messages, cut into 64-byte fragments, sent
	// over and over under fresh frame ids.
	msgs := []Message{
		{Kind: KindCollectResponse, Seq: 11, Switch: 3, Stamp: 2 * netsim.Second, Wire: 56,
			Records: []dataplane.RTRecord{
				{Flow: dataplane.FlowID{Src: 1, Sink: 3}, Epoch: 7, Latency: 300 * netsim.Microsecond, Arrival: netsim.Second},
				{Flow: dataplane.FlowID{Src: 2, Sink: 3}, Epoch: 8, Latency: 900 * netsim.Microsecond, Arrival: 2 * netsim.Second},
			}},
		{Kind: KindNotification, Seq: 12, Switch: 5, Wire: dataplane.NotificationBytes,
			Note: dataplane.Notification{Kind: dataplane.NotifyDrop, Switch: 5,
				Flow: dataplane.FlowID{Src: 1, Sink: topology.NodeID(5)}, Time: netsim.Second, Dropped: 4}},
	}
	const honestFrag = 64
	honest := netip.MustParseAddrPort("127.0.0.1:7001")
	hostile := []netip.AddrPort{
		netip.MustParseAddrPort("127.0.0.1:6661"),
		netip.MustParseAddrPort("127.0.0.1:6662"),
		netip.MustParseAddrPort("10.0.0.9:6661"),
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		clock := time.Unix(1000, 0)
		var delivered [][]byte
		tr := reasmTransport(&clock, func(m Message) { delivered = append(delivered, EncodeMessage(&m)) })

		// The honest frame in flight: its datagrams, and how many are fed.
		var (
			pkts      [][]byte
			want      []byte
			id        = uint32(1 << 16) // hostile ids stay below 256
			next      int
			disturbed bool
			dropsAt   int64
			seenAt    int
			sent      int
		)
		feedHonest := func(twice bool) {
			if pkts == nil {
				id++
				m := msgs[sent%len(msgs)]
				sent++
				pkts, want, next = fragmentsOf(id, m, honestFrag), EncodeMessage(&m), 0
				disturbed, dropsAt, seenAt = false, tr.stats.ReasmDropped.Load(), len(delivered)
			}
			tr.onFragment(pkts[next], honest)
			if twice {
				tr.onFragment(pkts[next], honest)
				// A repeated one-fragment frame is a second frame, delivered
				// again; the controller's sequence dedup absorbs it.
				disturbed = disturbed || len(pkts) == 1
			}
			if next++; next < len(pkts) {
				return
			}
			if !disturbed && tr.stats.ReasmDropped.Load() == dropsAt {
				if len(delivered) != seenAt+1 || !bytes.Equal(delivered[seenAt], want) {
					t.Fatalf("undisturbed honest frame %d: %d deliveries since it began, want itself once", id, len(delivered)-seenAt)
				}
			}
			pkts = nil
		}

		if len(raw) > reasmMaxSteps*reasmStepBytes {
			raw = raw[:reasmMaxSteps*reasmStepBytes]
		}
		for ; len(raw) >= reasmStepBytes; raw = raw[reasmStepBytes:] {
			flags := raw[0]
			fid := uint32(raw[1])
			index := int(binary.BigEndian.Uint16(raw[2:4]))
			fcount := int(binary.BigEndian.Uint16(raw[4:6]))
			length := int(binary.BigEndian.Uint16(raw[6:8]))
			if flags&stepClock != 0 {
				clock = clock.Add(time.Duration(length) * time.Millisecond)
				disturbed = true
			}
			if flags&stepHonest != 0 {
				feedHonest(flags&stepRepeat != 0)
			}
			from := hostile[int(flags&3)%len(hostile)]
			if flags&stepSpoof != 0 && pkts != nil {
				// Same sender, same id, any count but the frame's own: its
				// own count would make the filler part of the frame, which
				// nothing short of authentication can tell apart.
				from, fid, disturbed = honest, id, true
				if fcount == len(pkts) {
					fcount++
				}
			}
			// Filler that cannot open a frame (FrameMagic is 0x4D31).
			tr.onFragment(fragment(fid, index, fcount, bytes.Repeat([]byte{0xEE}, length%2048)), from)

			if tr.reasmHeld > maxReasmBytes || len(tr.reasm) > maxPartialFrames {
				t.Fatalf("incomplete frames hold %d bytes in %d entries; bounds %d and %d",
					tr.reasmHeld, len(tr.reasm), maxReasmBytes, maxPartialFrames)
			}
		}
		held := 0
		for _, p := range tr.reasm {
			held += cap(p.got)*8 + cap(p.buf)
		}
		if held != tr.reasmHeld {
			t.Fatalf("incomplete frames hold %d bytes, accounted as %d", held, tr.reasmHeld)
		}
		for _, got := range delivered {
			if !bytes.Equal(got, EncodeMessage(&msgs[0])) && !bytes.Equal(got, EncodeMessage(&msgs[1])) {
				t.Fatalf("delivered a frame nobody sent: %x", got)
			}
		}
	})
}
