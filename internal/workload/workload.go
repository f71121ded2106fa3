// Package workload generates synthetic traffic shaped like the paper's
// evaluation environment: background flows of roughly 200 packets per
// second between host pairs with packet sizes and inter-packet gaps
// following the heavy-tailed mix reported for the UW data-center trace
// (Benson et al., IMC'10), plus diurnal load modulation for the Fig. 5
// threshold study and transient burst flows for micro-burst injection.
//
// The paper uses the proprietary trace itself; this generator substitutes
// a seeded synthetic equivalent (see DESIGN.md §2) — the detectors only
// see rates, sizes, and gaps, all of which the generator reproduces in
// distributional shape.
package workload

import (
	"math"
	"math/rand"

	"mars/internal/netsim"
	"mars/internal/topology"
)

// SizeDist samples packet sizes in bytes.
type SizeDist interface {
	Sample(r *rand.Rand) int32
}

// FixedSize always returns the same packet size.
type FixedSize int32

// Sample implements SizeDist.
func (f FixedSize) Sample(*rand.Rand) int32 { return int32(f) }

// UWLikeSizes is a bimodal mix approximating data-center traffic: ~55%
// small control/ACK packets (40-200 B), ~40% MTU-sized data (1400-1500 B),
// and a 5% mid-range remainder.
type UWLikeSizes struct{}

// Sample implements SizeDist.
func (UWLikeSizes) Sample(r *rand.Rand) int32 {
	x := r.Float64()
	switch {
	case x < 0.55:
		return int32(40 + r.Intn(161))
	case x < 0.95:
		return int32(1400 + r.Intn(101))
	default:
		return int32(201 + r.Intn(1199))
	}
}

// GapDist samples inter-packet gaps given a target mean gap.
type GapDist uint8

const (
	// GapExponential gives Poisson arrivals.
	GapExponential GapDist = iota
	// GapLognormal gives burstier, heavy-tailed gaps (σ=1), closer to the
	// ON/OFF behaviour observed in data-center traces.
	GapLognormal
	// GapConstant gives a CBR flow.
	GapConstant
)

func (g GapDist) sample(r *rand.Rand, mean float64) float64 {
	switch g {
	case GapExponential:
		return r.ExpFloat64() * mean
	case GapLognormal:
		// lognormal with median chosen so the mean matches: mean of
		// lognormal(mu, sigma) = exp(mu + sigma^2/2).
		const sigma = 1.0
		mu := math.Log(mean) - sigma*sigma/2
		return math.Exp(mu + sigma*r.NormFloat64())
	case GapConstant:
		return mean
	default:
		return mean
	}
}

// RateFn is a load curve over time: a multiplier on a base rate.
type RateFn func(t netsim.Time) float64

// Diurnal returns a day-long sinusoidal load curve scaled to [low, high]
// multipliers with the given period, peaking mid-period. This reproduces
// the "traffic volume varies throughout the day" setting of Fig. 5.
func Diurnal(low, high float64, period netsim.Time) RateFn {
	return func(t netsim.Time) float64 {
		phase := 2 * math.Pi * float64(t%period) / float64(period)
		// Minimum at phase 0, maximum at pi.
		return low + (high-low)*(1-math.Cos(phase))/2
	}
}

// Flow is a unidirectional packet stream between two hosts.
type Flow struct {
	// Src and Dst are host node IDs.
	Src, Dst topology.NodeID
	// Key is the flow's ECMP identity.
	Key netsim.FlowKey
	// RatePPS is the base packet rate.
	RatePPS float64
	// Sizes samples per-packet sizes; nil means UWLikeSizes.
	Sizes SizeDist
	// Gaps selects the inter-packet gap distribution.
	Gaps GapDist
	// Start and Stop bound the flow's lifetime; Stop <= Start means
	// "runs until the simulation ends".
	Start, Stop netsim.Time

	// SentCount is incremented for every packet emitted.
	SentCount int64
}

// Install schedules the flow's packets on the simulator. It must be called
// before the simulator runs past Start.
func (f *Flow) Install(s *netsim.Simulator) {
	if f.RatePPS <= 0 {
		panic("workload: flow rate must be positive")
	}
	sizes := f.Sizes
	if sizes == nil {
		sizes = UWLikeSizes{}
	}
	var emit func()
	emit = func() {
		now := s.Now()
		if f.Stop > f.Start && now >= f.Stop {
			return
		}
		s.Send(now, f.Src, f.Dst, f.Key, sizes.Sample(s.RNG()))
		f.SentCount++
		meanGap := float64(netsim.Second) / f.RatePPS
		gap := f.Gaps.sample(s.RNG(), meanGap)
		s.After(netsim.Time(gap)+1, emit)
	}
	s.At(f.Start, emit)
}

// Burst schedules a transient high-rate flow: the paper's micro-burst
// injection sends "one transient flow in a great amount, over 1000 pps
// within a second".
func Burst(s *netsim.Simulator, src, dst topology.NodeID, key netsim.FlowKey, pps float64, start, dur netsim.Time, size int32) *Flow {
	f := &Flow{
		Src: src, Dst: dst, Key: key,
		RatePPS: pps,
		Sizes:   FixedSize(size),
		Gaps:    GapConstant,
		Start:   start,
		Stop:    start + dur,
	}
	f.Install(s)
	return f
}

// BackgroundConfig parameterizes a random mesh of background flows.
type BackgroundConfig struct {
	// NumFlows is the number of host pairs to connect.
	NumFlows int
	// RatePPS is the base per-flow rate (the paper uses ~200 pps).
	RatePPS float64
	// RateJitter randomizes each flow's rate within ±RateJitter fraction.
	RateJitter float64
	// Gaps selects the gap distribution for all flows.
	Gaps GapDist
	// Start and Stop bound all flows.
	Start, Stop netsim.Time
	// CrossPodBias in [0,1] is the probability a flow's endpoints are
	// forced into different pods (longer paths exercise more switches).
	CrossPodBias float64
	// RoundRobinSrc assigns flow sources round-robin over hosts instead of
	// uniformly at random, evening out per-edge load.
	RoundRobinSrc bool
	// RoundRobinDst rotates destinations deterministically as well,
	// evening out per-host fan-in (random destinations create genuine
	// congestion hotspots that confound fault-injection studies).
	RoundRobinDst bool
}

// RandomBackground installs cfg.NumFlows flows between distinct random
// hosts of a fat-tree and returns them. Flow keys are 1..NumFlows offset
// by keyBase so callers can keep key ranges disjoint.
func RandomBackground(s *netsim.Simulator, ft *topology.FatTree, cfg BackgroundConfig, keyBase uint64) []*Flow {
	rng := s.RNG()
	hosts := ft.HostIDs
	hostsPerPod := len(hosts) / ft.K
	flows := make([]*Flow, 0, cfg.NumFlows)
	for i := 0; i < cfg.NumFlows; i++ {
		var src topology.NodeID
		if cfg.RoundRobinSrc {
			src = hosts[i%len(hosts)]
		} else {
			src = hosts[rng.Intn(len(hosts))]
		}
		var dst topology.NodeID
		if cfg.RoundRobinDst {
			// Deterministic rotation with a co-prime stride: every host
			// receives the same number of flows. Cross-pod preference is
			// honored by probing to the next slot outside the source pod.
			srcIdx := srcIndex(hosts, src)
			idx := (srcIdx + 1 + (i*5)%(len(hosts)-1)) % len(hosts)
			for probe := 0; probe < len(hosts); probe++ {
				dst = hosts[idx]
				samePod := idx/hostsPerPod == srcIdx/hostsPerPod
				crossWanted := cfg.CrossPodBias > 0 && rng.Float64() < cfg.CrossPodBias
				if dst != src && (!crossWanted || !samePod) {
					break
				}
				idx = (idx + 1) % len(hosts)
			}
		} else {
			for {
				if cfg.CrossPodBias > 0 && rng.Float64() < cfg.CrossPodBias {
					srcPod := srcIndex(hosts, src) / hostsPerPod
					dstPod := rng.Intn(ft.K - 1)
					if dstPod >= srcPod {
						dstPod++
					}
					dst = hosts[dstPod*hostsPerPod+rng.Intn(hostsPerPod)]
				} else {
					dst = hosts[rng.Intn(len(hosts))]
				}
				if dst != src {
					break
				}
			}
		}
		rate := cfg.RatePPS
		if cfg.RateJitter > 0 {
			rate *= 1 + cfg.RateJitter*(2*rng.Float64()-1)
		}
		f := &Flow{
			Src: src, Dst: dst,
			Key:     netsim.FlowKey(keyBase + uint64(i) + 1),
			RatePPS: rate,
			Gaps:    cfg.Gaps,
			Start:   cfg.Start,
			Stop:    cfg.Stop,
		}
		f.Install(s)
		flows = append(flows, f)
	}
	return flows
}

func srcIndex(hosts []topology.NodeID, h topology.NodeID) int {
	for i, x := range hosts {
		if x == h {
			return i
		}
	}
	return 0
}
