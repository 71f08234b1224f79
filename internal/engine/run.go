package engine

import (
	"context"
	"slices"
	"sort"

	"pap/internal/nfa"
	"pap/internal/prefilter"
)

// ctxCheckEvery is the default symbol interval between context polls in
// the *Context run variants: frequent enough that even slow automata
// notice a deadline within microseconds, rare enough to keep the poll off
// the hot per-symbol path.
const ctxCheckEvery = 4096

// Result summarises one sequential execution.
type Result struct {
	Reports     []Report
	Transitions int64
	MaxFrontier int
	SumFrontier int64 // Σ frontier size over all positions (avg = Sum/len)
	// PrefilterSkipped counts input bytes the run never stepped because a
	// prefilter proved them inert on a dead frontier (0 for kinds without
	// a prefilter, see PrefilterFor). Skipped symbols contribute nothing
	// to Transitions or the frontier statistics — for class skips that is
	// exact (the true contribution is zero); literal skips additionally
	// drop doomed partial frontiers (see RunOpts.LiteralPrefilter).
	PrefilterSkipped int64
	// Stats are the engine's decision counters at the end of the run.
	// Stats.BaselineSkipped bytes were consumed by the engine's own
	// baseline-skip fast path: like class prefilter skips this is fully
	// exact — every observable, including the per-symbol frontier
	// statistics, is preserved bit-for-bit.
	Stats
	// BestScore is the maximum report Score of a scored run (see
	// RunOpts.Scored); meaningful only when Reports is non-empty (scores
	// may be negative, so 0 is not a sentinel). Always 0 for unscored runs.
	BestScore int64
}

// RunOpts tunes the run loops.
type RunOpts struct {
	// LiteralPrefilter permits the report-exact literal scanner for
	// dead-frontier skips, in addition to the always-exact class scanner.
	// Only the report stream is then guaranteed; MaxFrontier/SumFrontier
	// may undercount doomed partial-literal activity. Match-only callers
	// (pap.Match and friends) enable it; metric-bearing callers must not.
	LiteralPrefilter bool
	// DisableBaselineSkip forces every symbol through the stepping loop
	// even on engines with the baseline-skip fast path — the ablation the
	// conformance harness uses to prove the fast path exact.
	DisableBaselineSkip bool
	// Scored enables per-transition score tracking (see Scorer): the engine
	// kind is remapped through ScoringKind (lazy DFA and meta have no score
	// channel), reports carry scores, Result.BestScore is filled, and the
	// literal prefilter is never used — it is only report-exact, and a
	// dropped doomed frontier could carry the best score. The always-exact
	// class and baseline skips stay on: a skipped symbol fires nothing, so
	// no score can change.
	Scored bool
}

// PrefilterFor returns the prefilter a loop stepping an engine of the
// given (already scoring-remapped) kind uses to skip dead-frontier input:
// the automaton's prefilter for MetaKind when scanning can pay off, nil
// otherwise. tab must be non-nil for MetaKind.
func PrefilterFor(kind Kind, tab *Tables) *prefilter.Prefilter {
	if kind != MetaKind {
		return nil
	}
	if pf := tab.Prefilter(); pf.Useful() {
		return pf
	}
	return nil
}

// EngineFor builds the engine and prefilter a run loop or stream steps,
// honouring opts: kind remapping, score tracking, and the baseline-skip
// ablation. tab may be nil (private tables are built on demand).
func EngineFor(n *nfa.NFA, kind Kind, tab *Tables, opts RunOpts) (Engine, *prefilter.Prefilter) {
	if opts.Scored {
		kind = ScoringKind(kind)
	}
	if tab == nil {
		tab = NewTables(n)
	}
	e := New(kind, n, tab)
	if opts.Scored {
		SetScoring(e, true)
	}
	if opts.DisableBaselineSkip {
		e.SetBaselineSkip(false)
	}
	return e, PrefilterFor(kind, tab)
}

// Run executes the automaton over the whole input with the default (Auto)
// backend and collects all reports in order.
func Run(n *nfa.NFA, input []byte) Result {
	return RunEngine(n, input, Auto, nil)
}

// RunEngine is Run with an explicit backend kind and optional shared match
// tables (nil builds private tables on demand; sparse ignores them).
func RunEngine(n *nfa.NFA, input []byte, kind Kind, tab *Tables) Result {
	return RunEngineOpts(n, input, kind, tab, RunOpts{})
}

// RunEngineOpts is RunEngine with run options. Under MetaKind the run
// skips dead-frontier regions the prefilter proves inert instead of
// stepping them; Result.PrefilterSkipped counts the bytes skipped.
func RunEngineOpts(n *nfa.NFA, input []byte, kind Kind, tab *Tables, opts RunOpts) Result {
	res, _, _, _ := run(context.Background(), n, input, nil, kind, tab, 0, opts)
	return res
}

// RunEngineContext is RunEngine with cooperative cancellation: ctx.Err()
// is polled every `every` symbols (<= 0 selects the default interval), so
// the per-symbol inner loop stays check-free. On cancellation it returns
// ctx's error together with the partial result and the number of symbols
// processed before the poll observed the cancellation.
func RunEngineContext(ctx context.Context, n *nfa.NFA, input []byte, kind Kind, tab *Tables, every int) (Result, int, error) {
	return RunEngineOptsContext(ctx, n, input, kind, tab, every, RunOpts{})
}

// RunEngineOptsContext is RunEngineContext with run options (see
// RunEngineOpts). Prefilter skips jump over poll offsets without
// checking — a skip consumes input at scan speed, so cancellation latency
// stays bounded by the stepped stretches between candidates.
func RunEngineOptsContext(ctx context.Context, n *nfa.NFA, input []byte, kind Kind, tab *Tables, every int, opts RunOpts) (Result, int, error) {
	res, _, pos, err := run(ctx, n, input, nil, kind, tab, every, opts)
	return res, pos, err
}

// Boundary captures the golden execution state at one segment cut: the
// segment starting at Pos sees Enabled as its true start frontier, produced
// by the states in Fired firing on input[Pos-1].
type Boundary struct {
	Pos     int
	Fired   []nfa.StateID // fired on input[Pos-1] (copy, sorted)
	Enabled []nfa.StateID // enabled at Pos, excluding all-input (copy, sorted)
	// Scores holds the best-path score of each Enabled state, parallel to
	// Enabled; nil for unscored runs. Segment flows seeded from this
	// boundary inherit these entry scores, which is what makes
	// boundary-crossing path scores exact under parallelization.
	Scores []int64
}

// RunWithBoundaries is Run, additionally recording the golden state at each
// cut position. cuts must be strictly increasing, in (0, len(input)).
func RunWithBoundaries(n *nfa.NFA, input []byte, cuts []int) (Result, []Boundary) {
	return RunWithBoundariesEngine(n, input, cuts, Auto, nil)
}

// RunWithBoundariesEngine is RunWithBoundaries with an explicit backend
// kind and optional shared match tables.
func RunWithBoundariesEngine(n *nfa.NFA, input []byte, cuts []int, kind Kind, tab *Tables) (Result, []Boundary) {
	res, bounds, _, _ := RunWithBoundariesEngineContext(context.Background(), n, input, cuts, kind, tab, 0, RunOpts{})
	return res, bounds
}

// RunWithBoundariesEngineContext is RunWithBoundariesEngine with the same
// cooperative cancellation contract as RunEngineContext: ctx is polled
// every `every` symbols (<= 0 selects the default) and the partial result,
// with the number of symbols processed, is returned alongside ctx's error
// on cancellation. opts.LiteralPrefilter is ignored (the literal scanner
// is never exact enough for a metric-bearing boundary run).
func RunWithBoundariesEngineContext(ctx context.Context, n *nfa.NFA, input []byte, cuts []int, kind Kind, tab *Tables, every int, opts RunOpts) (Result, []Boundary, int, error) {
	opts.LiteralPrefilter = false
	return run(ctx, n, input, cuts, kind, tab, every, opts)
}

// run is the one sequential stepping loop behind every Run* entry point,
// recording a Boundary at each of the cuts. It returns the result, the
// boundaries, the number of symbols processed, and ctx's error if a poll
// (every `every` symbols, <= 0 for the default) observed a cancellation.
func run(ctx context.Context, n *nfa.NFA, input []byte, cuts []int, kind Kind, tab *Tables, every int, opts RunOpts) (Result, []Boundary, int, error) {
	if every <= 0 {
		every = ctxCheckEvery
	}
	e, pf := EngineFor(n, kind, tab, opts)
	literal := opts.LiteralPrefilter && !opts.Scored
	var res Result
	var err error
	bounds := make([]Boundary, 0, len(cuts))
	emit := func(r Report) { res.Reports = append(res.Reports, r) }
	ci, nextPoll := 0, 0
	i := 0
	for i < len(input) {
		// Skips and batches stop one symbol short of the next cut: the
		// cut-defining symbol is stepped alone below so its Fired/Enabled
		// record the boundary. Engine-internal baseline skips stay inside
		// the window and are exact for every metric.
		hi := len(input)
		if ci < len(cuts) {
			hi = cuts[ci] - 1
		}
		if pf != nil && e.Dead() {
			var j int
			if literal {
				j = pf.NextLiteral(input, i)
			} else {
				j = pf.Next(input, i)
			}
			if j = min(j, hi); j > i {
				res.PrefilterSkipped += int64(j - i)
				i = j
				continue
			}
		}
		if i >= nextPoll {
			if err = ctx.Err(); err != nil {
				break
			}
			nextPoll = i + every
		}
		if i < hi {
			c, sum, mx := e.StepBatch(input[i:hi], int64(i), emit)
			res.SumFrontier += sum
			res.MaxFrontier = max(res.MaxFrontier, mx)
			i += c
			continue
		}
		e.Step(input[i], int64(i), emit)
		l := e.FrontierLen()
		res.SumFrontier += int64(l)
		res.MaxFrontier = max(res.MaxFrontier, l)
		b := Boundary{
			Pos:     i + 1,
			Fired:   sortedIDs(e.AppendFired(nil)),
			Enabled: sortedIDs(e.AppendFrontier(nil)),
		}
		if opts.Scored {
			b.Scores = AppendScoresOf(e, b.Enabled, nil)
		}
		bounds = append(bounds, b)
		ci++
		i++
	}
	res.Transitions = e.Transitions()
	res.Stats = e.Stats()
	res.BestScore, _ = BestReportScore(res.Reports)
	return res, bounds, i, err
}

// sortedIDs sorts ids in place and returns them.
func sortedIDs(ids []nfa.StateID) []nfa.StateID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ReportKey is a comparable identity for deduplicating report events across
// flows: the same (offset, state) pair may be observed by several flows.
type ReportKey struct {
	Offset int64
	State  nfa.StateID
}

// DedupeReports sorts reports by (offset, state) and removes duplicates,
// keeping the maximum Score among duplicates — under max-plus scoring,
// several flows may each observe the same (offset, state) event along
// different paths, and the event's true score is the best of them. It sorts
// in place and allocates nothing, so hot paths (Stream.Write) can call it
// per chunk.
func DedupeReports(rs []Report) []Report {
	if len(rs) <= 1 {
		return rs
	}
	slices.SortFunc(rs, func(a, b Report) int {
		if a.Offset != b.Offset {
			if a.Offset < b.Offset {
				return -1
			}
			return 1
		}
		return int(a.State) - int(b.State)
	})
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Offset != last.Offset || r.State != last.State {
			out = append(out, r)
		} else if r.Score > last.Score {
			last.Score = r.Score
		}
	}
	return out
}

// SameReports reports whether a and b contain the same set of
// (offset, state, score) events, ignoring order and duplicates (duplicate
// scores max-merge first, matching DedupeReports). Unscored runs carry
// all-zero scores, so the comparison reduces to (offset, state) for them.
func SameReports(a, b []Report) bool {
	da := DedupeReports(append([]Report(nil), a...))
	db := DedupeReports(append([]Report(nil), b...))
	if len(da) != len(db) {
		return false
	}
	for i := range da {
		if da[i].Offset != db[i].Offset || da[i].State != db[i].State || da[i].Score != db[i].Score {
			return false
		}
	}
	return true
}
