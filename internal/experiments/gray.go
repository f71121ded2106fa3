package experiments

import (
	"fmt"
	"strings"

	"mars/internal/faults"
	"mars/internal/harness"
	"mars/internal/metrics"
	"mars/internal/netsim"
	"mars/internal/rca"
)

// The gray experiment measures fault localization under the failures the
// paper's clean five-scenario suite never exercises: silent partial drop,
// link flapping, hard link failure (topology churn), switch reboots that
// wipe register state, a degraded uplink masked by its own ECMP reaction,
// and a correlated two-root episode. Every scenario runs twice — once
// with the paper's five signatures (mode "paper") and once with
// compound-cause disambiguation enabled (mode "compound") — so the grid
// shows exactly where the paper breaks and what the new signatures
// recover.

// GrayMode selects the analyzer configuration a gray trial runs under.
type GrayMode uint8

const (
	// GrayPaper is the unmodified five-signature analyzer.
	GrayPaper GrayMode = iota
	// GrayCompound enables rca.Config.CompoundCauses.
	GrayCompound
)

// GrayModes lists the grid's column groups in order.
func GrayModes() []GrayMode { return []GrayMode{GrayPaper, GrayCompound} }

func (m GrayMode) String() string {
	if m == GrayCompound {
		return "compound"
	}
	return "paper"
}

// GrayScenario is one row of the gray grid: a named fault schedule.
type GrayScenario struct {
	Name     string
	Schedule faults.Schedule
}

// GrayScenarios lists the suite. Windows sit inside the standard 2 s
// warmup / 4 s total trial timeline; the reboot is short (switches come
// back) and the correlated row overlaps two independent roots.
func GrayScenarios() []GrayScenario {
	const (
		sec = netsim.Second
		ms  = netsim.Millisecond
	)
	return []GrayScenario{
		{"silent-drop", faults.Schedule{Injections: []faults.Injection{
			{Kind: faults.SilentDrop, Start: 2 * sec, Dur: 1500 * ms},
		}}},
		{"link-flap", faults.Schedule{Injections: []faults.Injection{
			{Kind: faults.LinkFlap, Start: 2 * sec, Dur: 1500 * ms},
		}}},
		{"link-down", faults.Schedule{Injections: []faults.Injection{
			{Kind: faults.LinkDown, Start: 2 * sec, Dur: 800 * ms},
		}}},
		{"switch-reboot", faults.Schedule{Injections: []faults.Injection{
			{Kind: faults.SwitchReboot, Start: 2 * sec, Dur: 300 * ms},
		}}},
		{"uplink-degrade", faults.Schedule{Injections: []faults.Injection{
			{Kind: faults.UplinkDegrade, Start: 2 * sec, Dur: 1500 * ms},
		}}},
		{"delay+drop", faults.Schedule{Injections: []faults.Injection{
			{Kind: faults.Delay, Start: 2 * sec, Dur: 1500 * ms},
			{Kind: faults.Drop, Start: 2300 * ms, Dur: 1000 * ms},
		}}},
	}
}

// GrayCell aggregates one (scenario, mode) cell.
type GrayCell struct {
	// Link scores ranks at link precision: for link-scoped roots the
	// culprit must name both endpoints; node-scoped roots fall back to
	// switch containment.
	Link metrics.Localization
	// Sw scores ranks at switch precision (containment, non-flow).
	Sw metrics.Localization
	// CauseHits counts trials where some top-3 culprit matched a root's
	// location AND its true cause class.
	CauseHits int
	// Detected counts trials with at least one post-fault diagnosis.
	Detected int
	Trials   int
}

// GrayResult holds the scenario x mode grid.
type GrayResult struct {
	Trials int
	Cells  map[string]map[GrayMode]*GrayCell
}

// grayOutcome is one trial's episode-aware score.
type grayOutcome struct {
	LinkRank int // best rank over roots at link precision; 0 = missed
	SwRank   int // best rank over roots at switch precision
	CauseHit bool
	Detected bool
}

// grayKindIndex offsets the seed-plan fault index so gray seeds never
// collide with the Table 1 kinds (0..4) or the ctrlchan sweeps.
const grayKindIndex = 100

// RunGrayWith runs the gray/correlated/churn suite: MARS only, every
// scenario in both analyzer modes, scored against the episode ground truth
// (roots only — consequences are the distractors). Both modes of a trial
// share one seed, so they face the identical episode and the grid
// isolates the analyzer change.
func RunGrayWith(cfg harness.Config, trials int, baseSeed int64) *GrayResult {
	scens := GrayScenarios()
	var kinds []sweepKind
	for si, sc := range scens {
		kinds = append(kinds, sweepKind{grayKindIndex + si, sc.Name})
	}
	var rows []sweepRow[grayOutcome]
	for _, mode := range GrayModes() {
		rows = append(rows, sweepRow[grayOutcome]{mode.String(), func(k int, seed int64) grayOutcome {
			tc := DefaultTrialConfig(seed, faults.SilentDrop)
			// FaultStart separates detections from false alarms; use the
			// episode's earliest window.
			tc.FaultStart, tc.FaultDur = scheduleWindow(scens[k].Schedule)
			return runGrayTrial(tc, scens[k].Schedule, mode == GrayCompound)
		}})
	}
	results := sweep(cfg, "gray", rows, kinds, trials, baseSeed)

	res := &GrayResult{
		Trials: trials,
		Cells:  make(map[string]map[GrayMode]*GrayCell),
	}
	for _, sc := range scens {
		res.Cells[sc.Name] = make(map[GrayMode]*GrayCell)
		for _, mode := range GrayModes() {
			res.Cells[sc.Name][mode] = &GrayCell{}
		}
	}
	for r, mode := range GrayModes() {
		for i, o := range results[r] {
			cell := res.Cells[scens[i/trials].Name][mode]
			cell.Trials++
			cell.Link.Add(o.LinkRank)
			cell.Sw.Add(o.SwRank)
			if o.CauseHit {
				cell.CauseHits++
			}
			if o.Detected {
				cell.Detected++
			}
		}
	}
	return res
}

// scheduleWindow returns the episode's overall [start, dur] envelope.
func scheduleWindow(s faults.Schedule) (netsim.Time, netsim.Time) {
	var start, end netsim.Time
	for i, in := range s.Injections {
		if i == 0 || in.Start < start {
			start = in.Start
		}
		if e := in.Start + in.Dur; e > end {
			end = e
		}
	}
	return start, end - start
}

// runGrayTrial runs one MARS trial over a fault schedule: the same
// mars.System run as every other MARS trial, scored against the episode.
func runGrayTrial(tc TrialConfig, sched faults.Schedule, compound bool) grayOutcome {
	m := startMARS(tc, func(c *rca.Config) { c.CompoundCauses = compound })
	ep := m.sys.InjectSchedule(sched)
	m.sys.Run(tc.Total)

	ranked := m.merged.Ranked()
	out := grayOutcome{Detected: m.detected}
	for _, gt := range ep.Roots() {
		if r := rankWhere(ranked, gt, grayLinkMatch); r > 0 && (out.LinkRank == 0 || r < out.LinkRank) {
			out.LinkRank = r
		}
		if r := rankWhere(ranked, gt, graySwitchMatch); r > 0 && (out.SwRank == 0 || r < out.SwRank) {
			out.SwRank = r
		}
		if !out.CauseHit {
			want := grayCauseWant(gt.Kind)
			for i, c := range ranked {
				if i >= 3 {
					break
				}
				if c.Cause == want && graySwitchMatch(c, gt) {
					out.CauseHit = true
					break
				}
			}
		}
	}
	return out
}

// rankWhere returns the 1-based rank of the first culprit matching gt
// under the given rule (0 = none).
func rankWhere(ranked []rca.Culprit, gt faults.GroundTruth, match func(rca.Culprit, faults.GroundTruth) bool) int {
	for i, c := range ranked {
		if match(c, gt) {
			return i + 1
		}
	}
	return 0
}

// grayLinkMatch is the strict location rule: a link-scoped root is
// located only by a port-level culprit naming both endpoints (in either
// orientation); node-scoped roots fall back to switch containment.
func grayLinkMatch(c rca.Culprit, gt faults.GroundTruth) bool {
	//mars:partial only link-scoped kinds need the strict both-endpoints rule; every node-scoped kind intentionally falls back to switch containment via graySwitchMatch
	switch gt.Kind {
	case faults.SilentDrop, faults.LinkFlap, faults.LinkDown, faults.UplinkDegrade:
		if c.Level != rca.LevelPort || len(c.Location) != 2 {
			return false
		}
		a, b := c.Location[0], c.Location[1]
		return (a == gt.Switch && b == gt.Peer) || (a == gt.Peer && b == gt.Switch)
	default:
		return graySwitchMatch(c, gt)
	}
}

// graySwitchMatch is switch-level containment (non-flow culprits). For a
// link-scoped fault either endpoint counts: an operator inspecting either
// switch finds the link. The strict both-endpoints rule is grayLinkMatch.
func graySwitchMatch(c rca.Culprit, gt faults.GroundTruth) bool {
	if c.Level == rca.LevelFlow {
		return false
	}
	if c.ContainsSwitch(gt.Switch) {
		return true
	}
	return gt.Peer >= 0 && c.ContainsSwitch(gt.Peer)
}

// grayCauseWant maps a root kind to its true cause class. Paper mode
// cannot emit the gray classes at all — its cause accuracy on those rows
// is zero by construction, which is the point of the comparison.
func grayCauseWant(k faults.Kind) rca.Cause {
	//mars:partial every loss-class kind (SilentDrop, LinkDown, Drop, ...) deliberately maps to CauseDrop through the default: loss is loss
	switch k {
	case faults.LinkFlap:
		return rca.CauseLinkFlap
	case faults.SwitchReboot:
		return rca.CauseSwitchReboot
	case faults.UplinkDegrade:
		return rca.CauseLinkDegrade
	case faults.Delay:
		return rca.CauseDelay
	default: // SilentDrop, LinkDown, Drop: loss is loss
		return rca.CauseDrop
	}
}

// Render formats the grid, paper vs compound per scenario.
func (r *GrayResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Gray failures, correlated faults, and topology churn (%d trials per scenario)\n", r.Trials)
	fmt.Fprintf(&b, "%-15s %-9s %5s %8s %8s %6s %6s %7s %8s\n",
		"Scenario", "Mode", "Det", "linkR@1", "linkR@3", "swR@1", "swR@3", "Cause@3", "Exam")
	for _, sc := range GrayScenarios() {
		for _, mode := range GrayModes() {
			c := r.Cells[sc.Name][mode]
			n := c.Trials
			if n == 0 {
				n = 1
			}
			fmt.Fprintf(&b, "%-15s %-9s %5.2f %8.2f %8.2f %6.2f %6.2f %7.2f %8.2f\n",
				sc.Name, mode,
				float64(c.Detected)/float64(n),
				c.Link.RecallAt(1), c.Link.RecallAt(3),
				c.Sw.RecallAt(1), c.Sw.RecallAt(3),
				float64(c.CauseHits)/float64(n),
				c.Link.MeanExamScore())
		}
	}
	return b.String()
}
