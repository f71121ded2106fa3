package faults

import (
	"fmt"
	"math/rand"

	"mars/internal/netsim"
	"mars/internal/topology"
)

// Injection is one timed entry of a Schedule: a fault kind and its active
// window. Parameters (which switch, which link, how much loss) are drawn
// from the injection's own seeded RNG when the schedule is applied, so two
// runs with the same ScheduleSeed materialize identical episodes.
type Injection struct {
	Kind  Kind
	Start netsim.Time
	Dur   netsim.Time
}

// Schedule is a declarative set of timed, possibly overlapping injections.
// It replaces the single-shot Inject model for gray-failure and
// correlated-fault episodes: the injector materializes every entry up
// front, records the full ground-truth episode (including causal links
// between co-injected faults), and guards each apply/revert pair so
// overlapping windows cannot corrupt simulator state.
type Schedule struct {
	Injections []Injection
}

// Fault is one materialized injection within an episode.
type Fault struct {
	GT GroundTruth
	// CausedBy indexes the root fault (in the same episode) that this
	// fault is a downstream consequence of; -1 for root faults. The
	// uplink-degrade scenario, for example, records the degraded link as
	// the root and the resulting ECMP weight skew as its consequence —
	// exactly the causal structure compound-cause RCA must untangle.
	CausedBy int
}

// Episode is the ground truth of one applied schedule: every fault it
// materialized, in application order, with causal links.
type Episode struct {
	Faults []Fault
}

// Roots lists only the root faults (those not caused by another fault).
// Scoring targets roots: blaming a consequence is exactly the mistake
// compound-cause disambiguation exists to avoid.
func (e *Episode) Roots() []GroundTruth {
	var out []GroundTruth
	for _, f := range e.Faults {
		if f.CausedBy < 0 {
			out = append(out, f.GT)
		}
	}
	return out
}

// RegisterFlusher wipes a switch's register state, as a reboot does to P4
// register arrays. The dataplane Program implements it; the injector calls
// it when a SwitchReboot injection's outage ends.
type RegisterFlusher interface {
	FlushSwitch(sw topology.NodeID)
}

// Handle guards one injection's apply/revert lifecycle. Apply captures the
// state it displaces and Revert restores that capture, so nested windows
// compose; applying twice, reverting before apply, or reverting twice is
// an error rather than silent state corruption.
type Handle struct {
	kind     Kind
	applied  bool
	reverted bool
	apply    func()
	revert   func()
}

func (in *Injector) newHandle(kind Kind, apply, revert func()) *Handle {
	return &Handle{kind: kind, apply: apply, revert: revert}
}

// active reports whether the fault is currently in force. Scheduled
// mid-window actions (flap toggles, the end-of-window revert) check it so
// a manual early Revert stops them cleanly.
func (h *Handle) active() bool { return h.applied && !h.reverted }

// Apply puts the fault into force. Applying twice is an error.
func (h *Handle) Apply() error {
	if h.applied {
		return fmt.Errorf("faults: %v injection applied twice", h.kind)
	}
	h.applied = true
	if h.apply != nil {
		h.apply()
	}
	return nil
}

// Revert restores the state the injection displaced. Reverting a
// never-applied or already-reverted injection is an error.
func (h *Handle) Revert() error {
	if !h.applied {
		return fmt.Errorf("faults: revert of never-applied %v injection", h.kind)
	}
	if h.reverted {
		return fmt.Errorf("faults: double revert of %v injection", h.kind)
	}
	h.reverted = true
	if h.revert != nil {
		h.revert()
	}
	return nil
}

// scheduleWindow arms h's window: apply fires at start, revert at end. The
// end event skips silently if the injection was already reverted by hand;
// a failing scheduled apply is an internal invariant violation and panics.
func (in *Injector) scheduleWindow(h *Handle, start, end netsim.Time) {
	in.Sim.At(start, func() {
		if err := h.Apply(); err != nil {
			panic(err)
		}
	})
	in.Sim.At(end, func() {
		if !h.active() {
			return
		}
		if err := h.Revert(); err != nil {
			panic(err)
		}
	})
}

// Apply materializes every injection of the schedule and returns the
// episode ground truth. Each injection draws its parameters from its own
// RNG, seeded from ScheduleSeed and the injection's position, so episodes
// are reproducible independent of how much randomness earlier injections
// consumed — the property that makes overlapping schedules composable.
func (in *Injector) Apply(s Schedule) *Episode {
	base := in.ScheduleSeed
	if base == 0 {
		// Fall back to the shared seeded stream so plain deployments stay
		// reproducible without configuring a second seed.
		base = in.rng.Int63()
	}
	ep := &Episode{}
	for i, spec := range s.Injections {
		rng := rand.New(rand.NewSource(mixSeed(base, int64(i))))
		in.plan(spec.Kind, spec.Start, spec.Dur, rng, ep, -1)
	}
	return ep
}

// mixSeed derives a well-spread per-injection seed (splitmix64 finalizer).
func mixSeed(base, i int64) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
