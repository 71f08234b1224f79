package engine_test

// Differential step-test harness for the batched hot loops: every backend
// is run in lock-step against the scalar sparse reference — the batched
// engine consumes a window per StepBatch call, the reference replays the
// same window one Step at a time — and every observable is compared at each
// window boundary: frontier set, fingerprint, death, reports (with
// offsets), cumulative transitions, and the per-symbol frontier statistics
// the run loops aggregate. Cases come from the conformance generators
// (random homogeneous NFAs, adversarial inputs), extended with seeded
// mid-run frontiers, and each is checked with the baseline on and off and
// with the baseline-skip fast path enabled and ablated. A second suite asserts the same invisibility at the
// core level: flow execution under both schedulers produces bit-identical
// modelled metrics with the fast path on and off.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pap/internal/conformance"
	"pap/internal/core"
	"pap/internal/engine"
	"pap/internal/nfa"
)

// stepBatchMax is the most symbols one StepBatch call may step on a live
// frontier (the engine package's batch size).
const stepBatchMax = 64

var stepDiffKinds = []engine.Kind{
	engine.SparseKind, engine.BitKind, engine.Auto,
	engine.LazyDFAKind, engine.MetaKind,
}

// stepDiffConfig is one lock-step comparison setup.
type stepDiffConfig struct {
	kind        engine.Kind
	baseline    bool
	disableSkip bool
	seed        []nfa.StateID // nil = start configuration
}

func (c stepDiffConfig) String() string {
	return fmt.Sprintf("%s/baseline=%v/skipOff=%v/seeded=%v",
		c.kind, c.baseline, c.disableSkip, c.seed != nil)
}

// sortReports orders raw report events canonically; engines may emit the
// same per-symbol event set in different state orders.
func sortReports(rs []engine.Report) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Offset != rs[j].Offset {
			return rs[i].Offset < rs[j].Offset
		}
		if rs[i].State != rs[j].State {
			return rs[i].State < rs[j].State
		}
		return rs[i].Code < rs[j].Code
	})
}

func equalReports(a, b []engine.Report) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runStepDiff locks one configured engine step-for-step against the scalar
// sparse reference over the whole input and fails on the first divergent
// observable.
func runStepDiff(t *testing.T, n *nfa.NFA, tab *engine.Tables, input []byte, cfg stepDiffConfig) {
	t.Helper()
	ref := engine.New(engine.SparseKind, n, tab)
	sub := engine.New(cfg.kind, n, tab)
	ref.SetBaseline(cfg.baseline)
	sub.SetBaseline(cfg.baseline)
	if cfg.disableSkip {
		sub.SetBaselineSkip(false)
	}
	if cfg.seed != nil {
		ref.Reset(cfg.seed)
		sub.Reset(cfg.seed)
	}

	var refReports, subReports []engine.Report
	refEmit := func(r engine.Report) { refReports = append(refReports, r) }
	subEmit := func(r engine.Report) { subReports = append(subReports, r) }

	for i := 0; i < len(input); {
		refReports, subReports = refReports[:0], subReports[:0]
		live := !sub.Dead()
		consumed, sum, max := sub.StepBatch(input[i:], int64(i), subEmit)
		if consumed < 1 || consumed > len(input)-i {
			t.Fatalf("%s: StepBatch at %d consumed %d of %d", cfg, i, consumed, len(input)-i)
		}
		at := fmt.Sprintf("%s: window [%d,%d)", cfg, i, i+consumed)
		// A window that starts on a live frontier is a batch of steps, not a
		// skip: it is bounded by the batch size and must end no later than
		// the symbol the frontier dies on, so run loops see every death. A
		// window that starts dead may first cross symbols that fire
		// nothing, but must end no later than the first symbol that fires
		// without reviving the frontier, so a run loop's prefilter regains
		// control after every candidate the engine did not revive on.
		if live && consumed > stepBatchMax {
			t.Fatalf("%s: live-frontier batch consumed %d symbols, max %d", at, consumed, stepBatchMax)
		}
		// Replay the same window on the scalar reference, accumulating the
		// per-symbol frontier statistics the run loops derive from it.
		var refSum int64
		refMax := 0
		for j := 0; j < consumed; j++ {
			ref.Step(input[i+j], int64(i+j), refEmit)
			l := ref.FrontierLen()
			refSum += int64(l)
			if l > refMax {
				refMax = l
			}
			fired := len(ref.AppendFired(nil)) > 0
			if l == 0 && (live || fired) && j < consumed-1 {
				t.Fatalf("%s: frontier dead at %d (live before %v, fired %v) but the batch ran on",
					at, i+j, live, fired)
			}
			live = l > 0
		}
		if sum != refSum || max != refMax {
			t.Fatalf("%s: frontier stats sum %d max %d, reference sum %d max %d",
				at, sum, max, refSum, refMax)
		}
		sortReports(refReports)
		sortReports(subReports)
		if !equalReports(refReports, subReports) {
			t.Fatalf("%s: reports %v, reference %v", at, subReports, refReports)
		}
		if got, want := sub.FrontierLen(), ref.FrontierLen(); got != want {
			t.Fatalf("%s: frontier len %d, reference %d", at, got, want)
		}
		if got, want := sub.Dead(), ref.Dead(); got != want {
			t.Fatalf("%s: dead %v, reference %v", at, got, want)
		}
		if !sub.FrontierSet().Equal(ref.FrontierSet()) {
			t.Fatalf("%s: frontier %v, reference %v", at, sub.FrontierSet(), ref.FrontierSet())
		}
		if got, want := sub.Fingerprint(), ref.Fingerprint(); got != want {
			t.Fatalf("%s: fingerprint %#x, reference %#x", at, got, want)
		}
		if got, want := sub.Transitions(), ref.Transitions(); got != want {
			t.Fatalf("%s: transitions %d, reference %d", at, got, want)
		}
		i += consumed
	}
}

// randomFrontier draws a random non-empty subset of the automaton's
// non-all-input states — a synthetic mid-run frontier, including shapes a
// start-configuration run may never reach (the "baseline-equal-but-not-
// identical" family: frontiers whose every member is also all-input-
// reachable yet arrived by a different path).
func randomFrontier(rng *rand.Rand, n *nfa.NFA) []nfa.StateID {
	allIn := make(map[nfa.StateID]bool)
	for _, q := range n.AllInputStates() {
		allIn[q] = true
	}
	var pool []nfa.StateID
	for q := 0; q < n.Len(); q++ {
		if !allIn[nfa.StateID(q)] {
			pool = append(pool, nfa.StateID(q))
		}
	}
	if len(pool) == 0 {
		return nil
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	k := 1 + rng.Intn(len(pool))
	seed := append([]nfa.StateID(nil), pool[:k]...)
	sort.Slice(seed, func(i, j int) bool { return seed[i] < seed[j] })
	return seed
}

// TestStepDiffLockStep is the differential harness over generated cases:
// scalar vs batched vs baseline-skip execution must agree on every
// observable at every window, for all backends, from the start
// configuration and from seeded frontiers, baseline on and off.
func TestStepDiffLockStep(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for s := 0; s < seeds; s++ {
		c, err := conformance.NewCase(int64(1000 + s))
		if err != nil {
			t.Fatalf("case %d: %v", s, err)
		}
		tab := engine.NewTables(c.NFA)
		rng := rand.New(rand.NewSource(int64(77 + s)))
		frontiers := [][]nfa.StateID{nil, randomFrontier(rng, c.NFA), randomFrontier(rng, c.NFA)}
		for _, kind := range stepDiffKinds {
			for _, disableSkip := range []bool{false, true} {
				for fi, seed := range frontiers {
					runStepDiff(t, c.NFA, tab, c.Input, stepDiffConfig{
						kind: kind, baseline: true, disableSkip: disableSkip, seed: seed,
					})
					// Baseline-off (enumeration-flow shape) needs a seed to
					// do anything; skip the start-config variant.
					if fi > 0 && seed != nil {
						runStepDiff(t, c.NFA, tab, c.Input, stepDiffConfig{
							kind: kind, baseline: false, disableSkip: disableSkip, seed: seed,
						})
					}
				}
			}
		}
	}
}

// TestStepDiffCoreRuns asserts the baseline-skip fast path is invisible to
// core's flow execution end to end: a run with the fast path enabled and
// one with it ablated produce identical reports and bit-identical modelled
// metrics (the skip counters themselves excepted), under both schedulers.
func TestStepDiffCoreRuns(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for s := 0; s < seeds; s++ {
		c, err := conformance.NewCase(int64(4000 + s))
		if err != nil {
			t.Fatalf("case %d: %v", s, err)
		}
		if len(c.Input) < 8 {
			continue
		}
		for _, parallel := range []bool{false, true} {
			cfg := core.DefaultConfig(1)
			cfg.MaxSegments = 4
			cfg.TDMQuantum = 8
			cfg.SegmentParallel = parallel
			cfg.Engine = stepDiffKinds[s%len(stepDiffKinds)]
			abl := cfg
			abl.DisableBaselineSkip = true

			on, err := core.Run(c.NFA, c.Input, cfg)
			if err != nil {
				t.Fatalf("case %d parallel=%v: %v", s, parallel, err)
			}
			off, err := core.Run(c.NFA, c.Input, abl)
			if err != nil {
				t.Fatalf("case %d parallel=%v ablated: %v", s, parallel, err)
			}
			if off.BaselineSkipped != 0 {
				t.Fatalf("case %d parallel=%v: ablated run skipped %d bytes",
					s, parallel, off.BaselineSkipped)
			}
			onR := engine.DedupeReports(append([]engine.Report(nil), on.Reports...))
			offR := engine.DedupeReports(append([]engine.Report(nil), off.Reports...))
			if !equalReports(onR, offR) {
				t.Fatalf("case %d parallel=%v: reports differ with skip ablated", s, parallel)
			}
			if on.TotalCycles != off.TotalCycles || on.BaselineCycles != off.BaselineCycles ||
				on.RawTotalCycles != off.RawTotalCycles || on.Speedup != off.Speedup ||
				on.TotalEvents != off.TotalEvents || on.TransitionRatio != off.TransitionRatio ||
				on.PrefilterSkipped != off.PrefilterSkipped {
				t.Fatalf("case %d parallel=%v: modelled metrics differ with skip ablated:\n on: cyc %d raw %d events %d\noff: cyc %d raw %d events %d",
					s, parallel, on.TotalCycles, on.RawTotalCycles, on.TotalEvents,
					off.TotalCycles, off.RawTotalCycles, off.TotalEvents)
			}
			if len(on.Segments) != len(off.Segments) {
				t.Fatalf("case %d parallel=%v: segment count differs", s, parallel)
			}
			for i := range on.Segments {
				sa, sb := on.Segments[i], off.Segments[i]
				sa.BaselineSkipped, sb.BaselineSkipped = 0, 0
				sa.EngineSwitches, sb.EngineSwitches = 0, 0
				if sa != sb {
					t.Fatalf("case %d parallel=%v: segment %d metrics differ:\n on: %+v\noff: %+v",
						s, parallel, i, sa, sb)
				}
			}
		}
	}
}
