package ctrlchan

// Transport is the seam between the control-plane endpoints (controller,
// switch agents) and the medium carrying their Messages. Two
// implementations exist:
//
//   - Channel, the deterministic in-simulator medium: delivery happens on
//     the simulator's event heap (synchronously for a perfect direction),
//     the deliver callback is invoked in-process, and all randomness is
//     seeded. This is the default and the only mode experiments run in —
//     attaching it is byte-identical to the historical direct-call path.
//   - UDPTransport, the real-socket medium of the deployment mode: the
//     Message is encoded with EncodeMessage and written to the peer
//     process resolved from a port map; the deliver argument is ignored
//     because delivery happens in the receiving process, which dispatches
//     inbound frames through its own registered handler.
//
// The controller's reliability machinery (timeouts, capped backoff, retry
// budgets, sequence dedup) sits above this seam and is identical in both
// modes; only the cause of loss differs (injected fault model vs. a real
// lossy network).
//
// Both keep Message's borrow rule: the Channel copies what it delivers
// after Send returns, the UDPTransport encodes before Send returns.
type Transport interface {
	// Send submits m in direction d. deliver is the in-process delivery
	// hook; transports that cross a process boundary ignore it.
	Send(d Direction, m Message, deliver func(Message))
}

var _ Transport = (*Channel)(nil)
