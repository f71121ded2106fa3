package ctrlchan

import (
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mars/internal/topology"
)

// UDPTransport carries control-channel Messages between real OS processes
// over a UDP socket — the deployment-mode implementation of Transport.
//
// Each process owns one socket. Outbound messages are encoded with
// EncodeMessage and split into MTU-sized fragments; the receiving process
// reassembles them, decodes the frame, and hands the Message to its
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
	frameID     atomic.Uint32
	closed      atomic.Bool
	// lossProb is the injected outbound fragment loss probability.
	lossProb float64

	mu  sync.Mutex
	rng *rand.Rand

	stats UDPStats

	reasmMu sync.Mutex
	reasm   map[reasmKey]*partialFrame
	sweep   time.Time

	readDone chan struct{}
}

// UDPStats counts transport-level traffic (all fields are atomic).
type UDPStats struct {
	FramesSent     atomic.Int64
	FramesReceived atomic.Int64
	FragmentsSent  atomic.Int64
	FragmentsRecvd atomic.Int64
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
	// reasmTTL bounds how long an incomplete frame waits for fragments.
	reasmTTL = 2 * time.Second
)

type reasmKey struct {
	from string
	id   uint32
}

type partialFrame struct {
	frags    [][]byte
	have     int
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
		reasm:       make(map[reasmKey]*partialFrame),
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
	frame := EncodeMessage(&m)
	id := t.frameID.Add(1)
	count := (len(frame) + t.maxFragment - 1) / t.maxFragment
	if count == 0 {
		count = 1
	}
	t.stats.FramesSent.Add(1)
	for i := 0; i < count; i++ {
		lo := i * t.maxFragment
		hi := lo + t.maxFragment
		if hi > len(frame) {
			hi = len(frame)
		}
		if t.lossProb > 0 && t.drawLoss() {
			t.stats.InjectedDrops.Add(1)
			continue
		}
		pkt := make([]byte, fragHeaderBytes+hi-lo)
		binary.BigEndian.PutUint16(pkt[0:2], fragMagic)
		binary.BigEndian.PutUint32(pkt[2:6], id)
		binary.BigEndian.PutUint16(pkt[6:8], uint16(i))
		binary.BigEndian.PutUint16(pkt[8:10], uint16(count))
		copy(pkt[fragHeaderBytes:], frame[lo:hi])
		if _, err := t.conn.WriteToUDP(pkt, peer); err != nil {
			return // socket closed or unreachable; retries handle it
		}
		t.stats.FragmentsSent.Add(1)
	}
}

func (t *UDPTransport) drawLoss() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Float64() < t.lossProb
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

// readLoop receives fragments, reassembles frames, decodes, delivers.
// Read deadlines keep the loop responsive to Close even when the peer has
// gone quiet.
func (t *UDPTransport) readLoop() {
	defer close(t.readDone)
	buf := make([]byte, 65536)
	for {
		//mars:wallclock socket read deadline; deployment-mode I/O, never simulation state
		t.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, from, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			if t.closed.Load() {
				return
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		t.onFragment(append([]byte(nil), buf[:n]...), from)
	}
}

// onFragment folds one received datagram into its frame; a completed
// frame is decoded and delivered.
func (t *UDPTransport) onFragment(pkt []byte, from *net.UDPAddr) {
	if len(pkt) < fragHeaderBytes || binary.BigEndian.Uint16(pkt[0:2]) != fragMagic {
		t.stats.DecodeErrors.Add(1)
		return
	}
	t.stats.FragmentsRecvd.Add(1)
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
		frame = t.reassemble(reasmKey{from: from.String(), id: id}, index, count, payload)
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
// last piece lands. Incomplete frames are evicted after reasmTTL.
func (t *UDPTransport) reassemble(k reasmKey, index, count int, payload []byte) []byte {
	//mars:wallclock reassembly TTL eviction; deployment-mode I/O, never simulation state
	now := time.Now()
	t.reasmMu.Lock()
	defer t.reasmMu.Unlock()
	if now.After(t.sweep) {
		for key, p := range t.reasm {
			if now.After(p.deadline) {
				delete(t.reasm, key)
				t.stats.ReasmDropped.Add(1)
			}
		}
		t.sweep = now.Add(reasmTTL)
	}
	p := t.reasm[k]
	if p == nil || len(p.frags) != count {
		p = &partialFrame{frags: make([][]byte, count), deadline: now.Add(reasmTTL)}
		t.reasm[k] = p
	}
	if p.frags[index] == nil {
		p.frags[index] = payload
		p.have++
	}
	if p.have < count {
		return nil
	}
	delete(t.reasm, k)
	var frame []byte
	for _, f := range p.frags {
		frame = append(frame, f...)
	}
	return frame
}

var _ Transport = (*UDPTransport)(nil)
