package ctrlchan

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"mars/internal/topology"
)

// UDPTransport carries control-channel Messages between real OS processes
// over a UDP socket — the deployment-mode implementation of Transport.
//
// Each process owns one socket. Outbound messages are encoded with
// appendMessage and split into MTU-sized fragments, both into buffers the
// transport keeps, so a steady-state Send allocates nothing; the receiving
// process reassembles them, decodes the frame, and hands the Message to its
// registered deliver function on the transport's read goroutine (callers
// serialize into their own run loop). A lost, truncated, or corrupted
// fragment loses the whole frame — exactly the failure the controller's
// timeout/backoff/retry machinery above this seam already absorbs.
//
// LossProb injects seeded random outbound fragment drops so the retry
// path can be exercised deterministically on an otherwise reliable
// loopback network.
type UDPTransport struct {
	conn *net.UDPConn
	// controller is where ToController traffic goes.
	controller *net.UDPAddr
	// switches routes ToSwitch traffic by Message.Switch. Several switch
	// IDs may map to the same process (switch groups).
	switches map[topology.NodeID]*net.UDPAddr
	deliver  func(Message)

	maxFragment int
	closed      atomic.Bool
	// lossProb is the injected outbound fragment loss probability.
	lossProb float64

	// sendMu serializes Send and guards what it keeps between calls: the
	// last frame id, the loss stream, the buffer each frame is encoded
	// into and the one each of its datagrams is written from.
	sendMu   sync.Mutex
	frameID  uint32
	rng      *rand.Rand
	frame    []byte
	datagram []byte

	stats UDPStats

	reasmMu sync.Mutex
	reasm   map[reasmKey]*partialFrame
	// reasmHeld is what the incomplete frames are accounted as holding
	// (partialFrame.held summed), kept at or below maxReasmBytes.
	reasmHeld int
	sweep     time.Time
	// now is the reassembly TTL clock: time.Now outside tests —
	// deployment-mode I/O, never simulation state.
	now func() time.Time

	readDone chan struct{}
}

// UDPStats counts transport-level traffic (all fields are atomic).
type UDPStats struct {
	FramesSent     atomic.Int64
	FramesReceived atomic.Int64
	FragmentsSent  atomic.Int64
	InjectedDrops  atomic.Int64
	DecodeErrors   atomic.Int64
	ReasmDropped   atomic.Int64
}

// UDPConfig parameterizes a UDPTransport.
type UDPConfig struct {
	// Controller is the ToController destination (nil in the controller
	// process itself, which never sends in that direction).
	Controller *net.UDPAddr
	// Switches maps switch IDs to their hosting process (nil entries and
	// an empty map are valid in switch processes, which never send
	// ToSwitch).
	Switches map[topology.NodeID]*net.UDPAddr
	// LossProb drops each outbound fragment with this probability, drawn
	// from a rand stream seeded by Seed (retry-path testing knob).
	LossProb float64
	Seed     int64
	// MaxFragment caps the fragment payload size; 0 means 1400 bytes.
	MaxFragment int
}

// Fragment header: 2 B magic, 4 B frame id, 2 B index, 2 B count.
const (
	fragMagic       = 0x4D46 // "MF"
	fragHeaderBytes = 10
	defaultFragment = 1400
	// reasmTTL bounds how long an incomplete frame waits for fragments;
	// expired ones are swept at most once per reasmSweep.
	reasmTTL   = 2 * time.Second
	reasmSweep = reasmTTL / 8
	// maxFrameBytes is the largest frame DecodeMessage accepts.
	maxFrameBytes = FrameHeaderBytes + MaxFramePayload
	// maxPartialFrames and maxReasmBytes bound what incomplete frames may
	// hold, fragment tables included (fragSlotBytes per announced fragment;
	// any datagram can announce 65,535): room for four whole frames at once.
	maxPartialFrames = 1024
	maxReasmBytes    = 4 * maxFrameBytes
	fragSlotBytes    = 24 // one []byte header of partialFrame.frags
)

type reasmKey struct {
	from netip.AddrPort
	id   uint32
}

type partialFrame struct {
	frags [][]byte
	have  int
	// held is the frame's share of reasmHeld: its fragment table plus the
	// payloads received so far.
	held     int
	deadline time.Time
}

// NewUDP wraps an already-bound socket. deliver receives every decoded
// inbound Message on the read goroutine; it must serialize into the
// owner's run loop itself. Close the transport (not the conn) to shut
// down.
func NewUDP(conn *net.UDPConn, cfg UDPConfig, deliver func(Message)) *UDPTransport {
	maxFrag := cfg.MaxFragment
	if maxFrag <= 0 {
		maxFrag = defaultFragment
	}
	t := &UDPTransport{
		conn:        conn,
		controller:  cfg.Controller,
		switches:    cfg.Switches,
		deliver:     deliver,
		maxFragment: maxFrag,
		lossProb:    cfg.LossProb,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		datagram:    make([]byte, 0, fragHeaderBytes+maxFrag),
		reasm:       make(map[reasmKey]*partialFrame),
		now:         time.Now,
		readDone:    make(chan struct{}),
	}
	//mars:sync the read loop only invokes the deliver callback, which posts onto the node's single-threaded rtclock loop; socket arrival order is inherently wall-clock and outside the seeded digest surface
	go t.readLoop()
	return t
}

// Send implements Transport: encode, fragment, write to the peer resolved
// from the direction and Message.Switch. The deliver argument is ignored —
// delivery happens in the receiving process.
func (t *UDPTransport) Send(d Direction, m Message, _ func(Message)) {
	if t.closed.Load() {
		return
	}
	var peer *net.UDPAddr
	if d == ToController {
		peer = t.controller
	} else {
		peer = t.switches[m.Switch]
	}
	if peer == nil {
		return // unroutable: indistinguishable from loss, retries handle it
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	t.frame = appendMessage(t.frame[:0], &m)
	t.frameID++
	count := (len(t.frame) + t.maxFragment - 1) / t.maxFragment // >= 1: a frame has a header
	t.stats.FramesSent.Add(1)
	for i := 0; i < count; i++ {
		lo := i * t.maxFragment
		hi := min(lo+t.maxFragment, len(t.frame))
		if t.lossProb > 0 && t.rng.Float64() < t.lossProb {
			t.stats.InjectedDrops.Add(1)
			continue
		}
		t.datagram = appendFragment(t.datagram[:0], t.frameID, i, count, t.frame[lo:hi])
		if _, err := t.conn.WriteToUDP(t.datagram, peer); err != nil {
			return // socket closed or unreachable; retries handle it
		}
		t.stats.FragmentsSent.Add(1)
	}
}

// appendFragment appends one datagram to dst: the fragment header, then
// its slice of the frame.
func appendFragment(dst []byte, id uint32, index, count int, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, fragMagic)
	dst = binary.BigEndian.AppendUint32(dst, id)
	dst = binary.BigEndian.AppendUint16(dst, uint16(index))
	dst = binary.BigEndian.AppendUint16(dst, uint16(count))
	return append(dst, payload...)
}

// Stats exposes the transport counters.
func (t *UDPTransport) Stats() *UDPStats { return &t.stats }

// Close stops the read loop and closes the socket.
func (t *UDPTransport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := t.conn.Close()
	<-t.readDone
	return err
}

// readLoop receives fragments, reassembles frames, decodes, delivers, until
// Close closes the socket under the blocked read.
func (t *UDPTransport) readLoop() {
	defer close(t.readDone)
	buf := make([]byte, 65536)
	for {
		n, from, err := t.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		t.onFragment(buf[:n], from)
	}
}

// onFragment folds one received datagram into its frame; a completed
// frame is decoded and delivered. pkt is only borrowed: a whole frame is
// decoded where it lies, and reassembly copies the fragments it keeps.
func (t *UDPTransport) onFragment(pkt []byte, from netip.AddrPort) {
	if len(pkt) < fragHeaderBytes || binary.BigEndian.Uint16(pkt[0:2]) != fragMagic {
		t.stats.DecodeErrors.Add(1)
		return
	}
	id := binary.BigEndian.Uint32(pkt[2:6])
	index := int(binary.BigEndian.Uint16(pkt[6:8]))
	count := int(binary.BigEndian.Uint16(pkt[8:10]))
	if count == 0 || index >= count {
		t.stats.DecodeErrors.Add(1)
		return
	}
	payload := pkt[fragHeaderBytes:]

	var frame []byte
	if count == 1 {
		frame = payload
	} else {
		frame = t.reassemble(reasmKey{from: from, id: id}, index, count, payload)
		if frame == nil {
			return // still waiting for fragments
		}
	}
	m, _, err := DecodeMessage(frame)
	if err != nil {
		t.stats.DecodeErrors.Add(1)
		return
	}
	t.stats.FramesReceived.Add(1)
	t.deliver(m)
}

// reassemble buffers one fragment and returns the whole frame when the
// last piece lands. Incomplete frames are evicted after reasmTTL, and a
// fragment that would take them past maxPartialFrames or maxReasmBytes, or
// its own frame past maxFrameBytes, is dropped — a lost fragment, which
// the retry machinery above already absorbs.
func (t *UDPTransport) reassemble(k reasmKey, index, count int, payload []byte) []byte {
	now := t.now()
	t.reasmMu.Lock()
	defer t.reasmMu.Unlock()
	if now.After(t.sweep) {
		for key, p := range t.reasm {
			if now.After(p.deadline) {
				t.evict(key, p)
			}
		}
		t.sweep = now.Add(reasmSweep)
	}
	p := t.reasm[k]
	if p != nil && len(p.frags) != count {
		t.evict(k, p) // the id now announces a different frame
		p = nil
	}
	need := len(payload)
	switch {
	case p == nil:
		need += count * fragSlotBytes
	case p.frags[index] != nil:
		return nil // duplicate
	case p.held-count*fragSlotBytes+need > maxFrameBytes:
		t.evict(k, p)
		return nil
	}
	if t.reasmHeld+need > maxReasmBytes || p == nil && len(t.reasm) >= maxPartialFrames {
		t.stats.ReasmDropped.Add(1)
		return nil
	}
	if p == nil {
		p = &partialFrame{frags: make([][]byte, count), deadline: now.Add(reasmTTL)}
		t.reasm[k] = p
	}
	p.frags[index] = bytes.Clone(payload) // non-nil, even when empty: it marks the index received
	p.have++
	p.held += need
	t.reasmHeld += need
	if p.have < count {
		return nil
	}
	delete(t.reasm, k)
	t.reasmHeld -= p.held
	frame := make([]byte, 0, p.held-count*fragSlotBytes)
	for _, f := range p.frags {
		frame = append(frame, f...)
	}
	return frame
}

// evict abandons an incomplete frame and releases what it held.
func (t *UDPTransport) evict(k reasmKey, p *partialFrame) {
	delete(t.reasm, k)
	t.reasmHeld -= p.held
	t.stats.ReasmDropped.Add(1)
}

var _ Transport = (*UDPTransport)(nil)
