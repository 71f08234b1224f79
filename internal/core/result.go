package core

import (
	"context"
	"fmt"

	"pap/internal/ap"
	"pap/internal/engine"
	"pap/internal/faultinject"
	"pap/internal/nfa"
)

// SegmentStats is the exported per-segment view of one PAP execution.
type SegmentStats struct {
	Index          int
	Start, End     int
	BoundarySym    byte
	InitFlows      int
	Rounds         int
	AvgFlows       float64
	Deactivations  int
	Convergences   int
	FIVKills       int
	FIVApplied     bool
	Cycles         ap.Cycles
	SwitchCycles   ap.Cycles
	HostCycles     ap.Cycles
	KnownAt        ap.Cycles
	Events         int64
	Transitions    int64
	EngineSwitches int64 // adaptive-backend representation switches
	// PrefilterSkipped counts input bytes this segment's flows covered by
	// dead-frontier skips instead of stepping — a simulator fast-path
	// figure; the modelled cycle metrics charge every covered symbol.
	PrefilterSkipped int64
	// BaselineSkipped counts input bytes this segment's ASG flow covered by
	// the exact baseline-skip scan (start-class scanner over a dead
	// enumeration frontier); the same charging rule applies.
	BaselineSkipped int64
	// FPCollisions counts verified fingerprint collisions — hash compares
	// that matched but whose full vector compare disagreed — across the
	// convergence and deactivation checks.
	FPCollisions int64
	Mispredicted bool      // speculation only
	RerunCycles  ap.Cycles // speculation only
}

// Result is the outcome of one PAP execution: the composed (exact) report
// set plus every modelled metric of the paper's evaluation.
type Result struct {
	Plan   *Plan
	Golden engine.Result

	// Reports is the composed, deduplicated output — provably equal to the
	// sequential run's (Correct is the check's outcome; under Config.Scored
	// the check also covers every report's score, since SameReports compares
	// scores and unscored runs carry all-zero scores).
	Reports []engine.Report
	Correct bool

	// BestScore is the maximum report score of a scored run (Config.Scored),
	// meaningful only when Reports is non-empty — scores may be negative, so
	// 0 is not a sentinel. Always 0 for unscored runs.
	BestScore int64

	BaselineCycles ap.Cycles // sequential AP: one symbol per cycle + host report scan
	TotalCycles    ap.Cycles // PAP completion time (after the golden-execution bound)
	RawTotalCycles ap.Cycles // before the never-worse clamp
	Clamped        bool      // true when golden execution won the race (§5.1)
	Speedup        float64
	IdealSpeedup   float64 // number of parallel segments

	Segments []SegmentStats

	// Figure 9: time-averaged number of active flows across enumeration
	// segments.
	AvgActiveFlows float64
	// Figure 10: flow switching cycles as a percentage of segment cycles.
	SwitchOverheadPct float64
	// Figure 11: average host-side false-path decode + FIV cost.
	AvgHostCycles ap.Cycles
	// Figure 12: emitted output events (all flows) / true output events.
	TotalEvents    int64
	ReportIncrease float64
	// §5.3 energy proxy: PAP transitions per symbol / sequential
	// transitions per symbol.
	TransitionRatio float64
	// EngineSwitches counts adaptive-backend representation switches
	// across all segment engines (0 for the fixed backends) — a simulator
	// observability figure, not an AP cost.
	EngineSwitches int64
	// PrefilterSkipped counts input bytes covered by dead-frontier
	// prefilter skips across all segment flows plus the golden run —
	// like EngineSwitches a simulator observability figure, never an AP
	// cost (skipped symbols are still charged their modelled cycles).
	PrefilterSkipped int64
	// BaselineSkipped counts input bytes covered by the exact baseline-skip
	// fast path (start-class scan over ASG-only regions) across all segment
	// flows plus the golden run. Unlike PrefilterSkipped this path is exact
	// for every observable, so it is deterministic across schedulers and
	// engine kinds; it too charges every covered symbol its modelled round.
	BaselineSkipped int64

	// FingerprintCollisions counts verified fingerprint collisions across
	// the hash fast paths (convergence, deactivation) — hash hits whose
	// full compare disagreed.
	FingerprintCollisions int64

	// CapacityNote is non-empty when the flow plan exceeds the SVC limit
	// (the run still simulates, as the paper's pre-optimization analyses do).
	CapacityNote string

	// MispredictedSegments counts segments that needed a speculative
	// re-run (Config.Speculate only).
	MispredictedSegments int
}

// Run plans and executes PAP for one automaton and input, returning the
// composed reports and all modelled metrics.
func Run(n *nfa.NFA, input []byte, cfg Config) (*Result, error) {
	return RunContext(context.Background(), n, input, cfg)
}

// RunContext is Run under a context: a cancelled or expired ctx stops the
// run at the next round boundary of every segment (and at coarse-grained
// polls of the golden execution) and returns ctx's error wrapped in
// *Aborted together with per-segment progress. Configured faults
// (Config.Fault) abort the same way. The final deferred recover is the
// backstop for panics outside any segment (plan build); segment panics
// are converted at the segment-goroutine boundary by guardSegment.
func RunContext(ctx context.Context, n *nfa.NFA, input []byte, cfg Config) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &Aborted{Cause: fmt.Errorf("core: pre-processing panicked: %v", r)}
		}
	}()
	plan, err := NewPlan(n, input, cfg)
	if err != nil {
		return nil, err
	}
	return plan.ExecuteContext(ctx, input)
}

// Baseline returns the sequential AP cycle cost for an input and its
// golden run: one symbol per cycle plus host event decoding (§4.1 accounts
// report post-processing in both baseline and PAP).
func Baseline(inputLen int, events int) ap.Cycles {
	return ap.Cycles(inputLen) + ap.Cycles(events*eventDecodeCycles)
}

// Execute runs the plan against the input it was built for.
func (p *Plan) Execute(input []byte) (*Result, error) {
	return p.ExecuteContext(context.Background(), input)
}

// ExecuteContext is Execute under a context; see RunContext for the
// cancellation contract.
func (p *Plan) ExecuteContext(ctx context.Context, input []byte) (*Result, error) {
	res := &Result{Plan: p, IdealSpeedup: float64(p.Segments)}
	golden, bounds, goldenPos, err := engine.RunWithBoundariesEngineContext(ctx, p.NFA, input, p.Cuts, p.Cfg.Engine, p.tables, 0,
		engine.RunOpts{DisableBaselineSkip: p.Cfg.DisableBaselineSkip, Scored: p.Cfg.Scored})
	if err != nil {
		// Aborted before any segment ran: report the golden execution's
		// own position as whole-input progress.
		return nil, &Aborted{
			Cause: fmt.Errorf("golden execution: %w", err),
			Segments: []SegmentProgress{
				{Index: 0, Start: 0, End: len(input), Pos: goldenPos},
			},
		}
	}
	res.Golden = golden
	res.BaselineCycles = Baseline(len(input), len(golden.Reports))
	if err := p.CheckCapacity(); err != nil {
		res.CapacityNote = err.Error()
	}

	if p.Segments == 1 {
		// Nothing to parallelize: PAP degenerates to the baseline.
		res.Reports = engine.DedupeReports(append([]engine.Report(nil), golden.Reports...))
		res.Correct = true
		res.BestScore, _ = engine.BestReportScore(res.Reports)
		res.TotalCycles, res.RawTotalCycles = res.BaselineCycles, res.BaselineCycles
		res.Speedup, res.IdealSpeedup = 1, 1
		res.TransitionRatio = 1
		res.ReportIncrease = 1
		res.TotalEvents = int64(len(golden.Reports))
		return res, nil
	}

	segs := p.buildSegments(input, bounds)

	// Execute the segments, chaining truth through the timeline (§3.4,
	// Figure 6): each segment's state-vector transfer and event scan start
	// when it finishes and overlap everything else; only the
	// truth-propagation step chains serially. The FIV for segment j+1
	// departs as soon as segment j's truth is known. Both schedulers share
	// one bounded flow pool and produce bit-identical modelled metrics; the
	// parallel one (sched.go, the default) also overlaps the segments'
	// wall-clock simulation the way the hardware overlaps its half-cores.
	pool := p.newFlowPool(p.Cfg.Workers)
	defer pool.close() // always drained, even on abort: no worker leaks
	if p.Cfg.SegmentParallel {
		p.executeParallel(ctx, segs, input, bounds, pool)
	} else {
		p.executeSerial(ctx, segs, input, bounds, pool)
	}
	if err := abortError(segs, ctx.Err()); err != nil {
		return nil, err
	}
	res.RawTotalCycles = segs[len(segs)-1].KnownAt
	res.TotalCycles = res.RawTotalCycles
	if res.TotalCycles > res.BaselineCycles {
		// Golden execution (§5.1): the half-core that ran segment 1 keeps
		// processing the remaining segments sequentially with known start
		// states, so PAP never loses to the baseline.
		res.TotalCycles = res.BaselineCycles
		res.Clamped = true
	}
	res.Speedup = float64(res.BaselineCycles) / float64(res.TotalCycles)

	p.compose(res, segs)
	p.aggregate(res, segs)
	return res, nil
}

// buildSegments constructs the runtime flows of every segment: segment 0
// gets the golden flow (true start states known); segments j>0 get the ASG
// flow plus the enumeration flows of seedFlows.
func (p *Plan) buildSegments(input []byte, bounds []engine.Boundary) []*segmentResult {
	segs := make([]*segmentResult, p.Segments)
	for j := 0; j < p.Segments; j++ {
		start, end := 0, len(input)
		if j > 0 {
			start = p.Cuts[j-1]
		}
		if j < len(p.Cuts) {
			end = p.Cuts[j]
		}
		seg := &segmentResult{
			Index: j,
			Start: start,
			End:   end,
			svc:   ap.NewSVC(p.Placement.Devices),
		}
		if j == 0 {
			golden := &flowRun{
				id:     0,
				asg:    true,
				alive:  true,
				attrib: []attribEntry{{CC: -1, Unit: -1, From: 0}},
			}
			seed := dropAllInput(sortedIDs(p.NFA.StartStates()), p.NFA)
			golden.svcID = seg.svc.AllocOverflow(seed, fingerprintOf(seed, p.NFA))
			seg.flows = []*flowRun{golden}
			seg.InitFlows = 1
			segs[j] = seg
			continue
		}
		seg.Sym = input[start-1]
		asg := &flowRun{
			id:     0,
			asg:    true,
			alive:  true,
			attrib: []attribEntry{{CC: -1, Unit: -1, From: int64(start)}},
		}
		asg.svcID = seg.svc.AllocOverflow(nil, 0)
		seg.flows = append(seg.flows, asg)
		if p.Cfg.Speculate {
			// Speculation: predict an idle boundary; no enumeration flows.
			seg.InitFlows = 1
			segs[j] = seg
			continue
		}
		p.seedFlows(seg, bounds[j-1])
		seg.InitFlows = len(seg.flows)
		segs[j] = seg
	}
	return segs
}

// seedFlows adds the enumeration flows of one segment with Index > 0 (the
// paper's §3.3): one flow per packed FlowSpec of the boundary symbol's
// plan, with unit truth decoded from the golden boundary before execution
// so the FIV can kill false flows in-loop.
func (p *Plan) seedFlows(seg *segmentResult, bound engine.Boundary) {
	sp := p.SymbolPlanFor(seg.Sym)
	seg.unitTrue = unitTruth(sp, bound)
	for fi, spec := range sp.Flows {
		f := &flowRun{
			id:    fi + 1,
			alive: true,
		}
		seed := dropAllInput(sortedIDs(spec.Seed), p.NFA)
		f.svcID = seg.svc.AllocOverflow(seed, fingerprintOf(seed, p.NFA))
		if p.Cfg.Scored {
			f.scoreBuf = entryScores(bound, seed)
		}
		for _, ui := range spec.Units {
			f.attrib = append(f.attrib, attribEntry{
				CC:   sp.Units[ui].CC,
				Unit: ui,
				From: int64(seg.Start),
			})
		}
		seg.flows = append(seg.flows, f)
	}
}

// entryScores returns the entry-score vector for a flow seed (sorted, no
// all-input states), drawn from the golden boundary: seed states the golden
// run had enabled at the cut inherit their exact best-path scores, so every
// boundary-crossing path resumes with the true sequential score. Seed states
// the golden run did NOT have enabled score 0 — they only exist in false
// flows (or false units), whose reports the truth filter drops, so the value
// is observably irrelevant; 0 keeps the vector deterministic. Both slices
// are sorted, so this is one merge walk.
func entryScores(b engine.Boundary, seed []nfa.StateID) []int64 {
	scores := make([]int64, len(seed))
	j := 0
	for i, q := range seed {
		for j < len(b.Enabled) && b.Enabled[j] < q {
			j++
		}
		if j < len(b.Enabled) && b.Enabled[j] == q && b.Scores != nil {
			scores[i] = b.Scores[j]
		}
	}
	return scores
}

// chainSegment performs the host-side truth-propagation step for one
// finished segment (§3.4): count the surviving flows, decode against the
// next segment's units, and fold the predecessor's KnownAt into this one —
// the serial link of the timeline. done is the segment's completion time
// (post-rerun under speculation); prevKnown is the predecessor's KnownAt (0
// for segment 0). Returns — and records — this segment's KnownAt.
func (p *Plan) chainSegment(seg *segmentResult, next *segmentResult, done, prevKnown ap.Cycles) ap.Cycles {
	if err := p.Cfg.fire(faultinject.TruthPublish, seg.Index, -1); err != nil {
		seg.err = err
		return 0 // callers check seg.err and never use this KnownAt
	}
	aliveFlows := 0
	for _, f := range seg.flows {
		if f.alive {
			aliveFlows++
		}
	}
	nextUnits := 0
	if next != nil && !p.Cfg.Speculate {
		nextUnits = len(p.SymbolPlanFor(next.Sym).Units)
	}
	par := hostParallelCycles(p.Placement.Devices, seg.EventsEmitted, nextUnits, aliveFlows)
	ser := hostSerialCycles(nextUnits, aliveFlows)
	seg.HostCycles = par + ser
	known := done + par
	if seg.Index > 0 && prevKnown > known {
		known = prevKnown
	}
	seg.KnownAt = known + ser
	return seg.KnownAt
}

// unitTruth evaluates every unit of a symbol plan against the golden
// enabled set at a boundary: a unit is true iff its whole (non-baseline)
// seed is enabled — the host-computable criterion that is sound (subset
// activity is subset reports) and complete (a fired parent enables all its
// children).
func unitTruth(sp *SymbolPlan, b engine.Boundary) []bool {
	enabled := make(map[nfa.StateID]struct{}, len(b.Enabled))
	for _, q := range b.Enabled {
		enabled[q] = struct{}{}
	}
	out := make([]bool, len(sp.Units))
	for i, u := range sp.Units {
		ok := true
		for _, q := range u.seedCheck {
			if _, in := enabled[q]; !in {
				ok = false
				break
			}
		}
		out[i] = ok && len(u.seedCheck) > 0
	}
	return out
}

func fingerprintOf(seed []nfa.StateID, n *nfa.NFA) uint64 {
	var fp uint64
	var prev nfa.StateID = -1
	for _, q := range seed { // sorted; skip duplicates
		if q != prev {
			fp ^= engine.Key(q)
			prev = q
		}
	}
	return fp
}

// dropAllInput removes always-enabled states (and duplicates) from a
// sorted seed: they are implicit in every flow's vector.
func dropAllInput(sorted []nfa.StateID, n *nfa.NFA) []nfa.StateID {
	isAll := make(map[nfa.StateID]bool, len(n.AllInputStates()))
	for _, q := range n.AllInputStates() {
		isAll[q] = true
	}
	out := sorted[:0]
	var prev nfa.StateID = -1
	for _, q := range sorted {
		if !isAll[q] && q != prev {
			out = append(out, q)
			prev = q
		}
	}
	return out
}

// compose filters every flow's reports by unit truth and unions them
// (§3.4): a report in connected component c of flow f is kept iff an
// attribution entry of f covers c with a true unit at or before the
// report's offset. Baseline-caused reports are kept via the always-true
// entries of the ASG/golden flows. The result is compared against the
// golden sequential run.
func (p *Plan) compose(res *Result, segs []*segmentResult) {
	ccIDs, _ := p.NFA.ConnectedComponents()
	var out []engine.Report
	for _, seg := range segs {
		for _, f := range seg.flows {
			for _, r := range f.reports {
				if attribTrue(f.attrib, seg.unitTrue, ccIDs[r.State], r.Offset) {
					out = append(out, r)
				}
			}
		}
	}
	res.Reports = engine.DedupeReports(out)
	res.Correct = engine.SameReports(res.Reports, res.Golden.Reports)
	res.BestScore, _ = engine.BestReportScore(res.Reports)
}

// aggregate fills the whole-run metrics from per-segment results.
func (p *Plan) aggregate(res *Result, segs []*segmentResult) {
	var flowRounds, rounds int64
	var switchCyc, cyc, hostCyc ap.Cycles
	var events, trans int64
	hostSamples := 0
	for _, seg := range segs {
		res.Segments = append(res.Segments, SegmentStats{
			Index:            seg.Index,
			Start:            seg.Start,
			End:              seg.End,
			BoundarySym:      seg.Sym,
			InitFlows:        seg.InitFlows,
			Rounds:           seg.Rounds,
			AvgFlows:         safeDiv(float64(seg.FlowRounds), float64(seg.Rounds)),
			Deactivations:    seg.Deactivations,
			Convergences:     seg.Convergences,
			FIVKills:         seg.FIVKills,
			FIVApplied:       seg.FIVApplied,
			Cycles:           seg.Cycles,
			SwitchCycles:     seg.SwitchCycles,
			HostCycles:       seg.HostCycles,
			KnownAt:          seg.KnownAt,
			Events:           seg.EventsEmitted,
			Transitions:      seg.Transitions,
			EngineSwitches:   seg.EngSwitches,
			PrefilterSkipped: seg.PrefilterSkip,
			BaselineSkipped:  seg.BaselineSkip,
			FPCollisions:     seg.FPCollisions,
			Mispredicted:     seg.Mispredicted,
			RerunCycles:      seg.RerunCycles,
		})
		if seg.Mispredicted {
			res.MispredictedSegments++
		}
		cyc += seg.Cycles
		switchCyc += seg.SwitchCycles
		events += seg.EventsEmitted
		trans += seg.Transitions
		res.EngineSwitches += seg.EngSwitches
		res.PrefilterSkipped += seg.PrefilterSkip
		res.BaselineSkipped += seg.BaselineSkip
		res.FingerprintCollisions += seg.FPCollisions
		if seg.Index > 0 {
			flowRounds += seg.FlowRounds
			rounds += int64(seg.Rounds)
		}
		if seg.Index < len(segs)-1 {
			hostCyc += seg.HostCycles
			hostSamples++
		}
	}
	res.PrefilterSkipped += res.Golden.PrefilterSkipped
	res.BaselineSkipped += res.Golden.BaselineSkipped
	res.AvgActiveFlows = safeDiv(float64(flowRounds), float64(rounds))
	res.SwitchOverheadPct = 100 * safeDiv(float64(switchCyc), float64(cyc))
	if hostSamples > 0 {
		res.AvgHostCycles = hostCyc / ap.Cycles(hostSamples)
	}
	res.TotalEvents = events
	res.ReportIncrease = safeDiv(float64(events), float64(len(res.Golden.Reports)))
	if len(res.Golden.Reports) == 0 {
		res.ReportIncrease = float64(events + 1)
	}
	res.TransitionRatio = safeDiv(float64(trans), float64(res.Golden.Transitions))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// CheckCorrect returns an error when the composed reports differ from the
// sequential run — which would indicate a bug in the parallelization, never
// an expected condition.
func (r *Result) CheckCorrect() error {
	if !r.Correct {
		return fmt.Errorf("core: composed reports differ from sequential execution (%d vs %d events)",
			len(r.Reports), len(r.Golden.Reports))
	}
	return nil
}
