package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"pap"
	"pap/internal/core"
	"pap/internal/engine"
)

// entry is the public entry point a library workload drives.
type entry int

const (
	entryMatch    entry = iota // pap.Automaton.Match over whole buffers
	entryStream                // pap.Stream.Write in 4 KiB chunks
	entryParallel              // pap.Automaton.MatchParallel(input, pap.DefaultConfig(4))
)

// ChunkSize is the Stream.Write chunk of stream-quiet.
const ChunkSize = 4 << 10

// Ranks is the modelled board size of parallel-dense.
const Ranks = 4

// libCase is one (ruleset, input) pair of a library workload.
type libCase struct {
	rs    *Ruleset
	a     *pap.Automaton // decoded during setup, through the public path
	input []byte
	ref   []Hit
	hits  []Hit          // stream sessions collect their hits here
	model *modelledStats // parallel: modelled figures of the first run
}

// libWorkload is match-dense, stream-quiet or parallel-dense.
type libWorkload struct {
	name     string
	entry    entry
	rulesets []*Ruleset
	cases    []*libCase // operations visit cases round-robin
}

// libSizes of one library workload: the rulesets, and the buffer sizes
// each ruleset's inputs come in. Buffers of several sizes spread the
// per-call times of one ruleset, so latency percentiles do not sit in
// the gap between two rulesets' speeds.
type libSizes struct {
	rulesets []string
	buffers  []int
}

func libSizesFor(name string, small bool) libSizes {
	s := map[string]libSizes{
		"match-dense":    {Rulesets, kibSteps(2, 40, 2)},
		"stream-quiet":   {Rulesets, sessionSizes(256)},
		"parallel-dense": {[]string{"Snort", "Bro217", "Dotstar09"}, kibSteps(6, 24, 2)},
	}[name]
	if small {
		s.buffers = []int{4 << 10}
	}
	return s
}

// sessionSizes are n stream-quiet session sizes, 6 to 14 KiB in 1 KiB
// steps, so sessions take two to four 4 KiB writes and most writes are
// quiet.
func sessionSizes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 6<<10 + (i%9)<<10
	}
	return out
}

// kibSteps are the sizes from lo to hi KiB in steps of step KiB.
func kibSteps(lo, hi, step int) []int {
	var out []int
	for k := lo; k <= hi; k += step {
		out = append(out, k<<10)
	}
	return out
}

// newLibWorkload generates the workload's rulesets and inputs from seed.
func newLibWorkload(name string, e entry, seed int64, small bool) (*libWorkload, error) {
	sz := libSizesFor(name, small)
	w := &libWorkload{name: name, entry: e}
	for _, rn := range sz.rulesets {
		rs, err := BuildRuleset(rn, RulesetSeed)
		if err != nil {
			return nil, err
		}
		w.rulesets = append(w.rulesets, rs)
	}
	perRuleset := make([][]*libCase, len(w.rulesets))
	for i, rs := range w.rulesets {
		inSeed := seed*7919 + int64(i*97)
		var inputs [][]byte
		if e == entryStream {
			var err error
			if inputs, err = rs.QuietSessions(sz.buffers, inSeed); err != nil {
				return nil, err
			}
		} else {
			for b, size := range sz.buffers {
				inputs = append(inputs, rs.DenseTrace(size, inSeed+int64(b)))
			}
		}
		for _, in := range inputs {
			perRuleset[i] = append(perRuleset[i], &libCase{rs: rs, input: in})
		}
	}
	for b := range sz.buffers {
		for i := range w.rulesets {
			w.cases = append(w.cases, perRuleset[i][b])
		}
	}
	return w, nil
}

// setupOnce decodes every ruleset through pap.DecodeANML and makes the
// entry point's first call on a 4 KiB probe, which builds the lazily
// filled tables. It returns the automata by ruleset.
func (w *libWorkload) setupOnce() (map[*Ruleset]*pap.Automaton, error) {
	out := make(map[*Ruleset]*pap.Automaton, len(w.rulesets))
	for _, rs := range w.rulesets {
		a, err := pap.DecodeANML(bytes.NewReader(rs.ANML))
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", rs.Name, err)
		}
		probe := w.probeFor(rs)
		switch w.entry {
		case entryMatch:
			a.Match(probe)
		case entryStream:
			s := a.NewStream()
			s.Write(probe)
			s.Close()
		case entryParallel:
			if _, err := a.MatchParallel(probe, pap.DefaultConfig(Ranks)); err != nil {
				return nil, fmt.Errorf("first MatchParallel on %s: %w", rs.Name, err)
			}
		}
		out[rs] = a
	}
	return out, nil
}

func (w *libWorkload) probeFor(rs *Ruleset) []byte {
	for _, c := range w.cases {
		if c.rs == rs {
			return c.input[:min(len(c.input), 4<<10)]
		}
	}
	return nil
}

// setup times setupReps full setups and reports the median as setup_s;
// the live heap the last one retains, after a forced GC, is
// setup_heap_mb. The last setup's automata serve the run.
func (w *libWorkload) setup(out *Output, reps int) error {
	var times []time.Duration
	var automata map[*Ruleset]*pap.Automaton
	for r := 0; r < reps; r++ {
		automata = nil
		var before runtime.MemStats
		if r == reps-1 {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		var err error
		if automata, err = w.setupOnce(); err != nil {
			return err
		}
		times = append(times, time.Since(t0))
		if r == reps-1 {
			var after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&after)
			out.Set("setup_heap_mb", float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/1e6)
		}
	}
	out.SetSampled("setup_s", MedianDuration(times), len(times))
	for _, c := range w.cases {
		c.a = automata[c.rs]
	}
	runtime.KeepAlive(automata)
	return nil
}

// references computes every case's reference hit set with the sparse
// engine.
func (w *libWorkload) references() {
	for _, c := range w.cases {
		c.ref = Reference(c.rs.NFA, c.input)
		c.hits = make([]Hit, 0, len(c.ref)+64)
	}
}

// opStats accumulates one phase of operations.
type opStats struct {
	start   time.Time
	samples []Sample
	steal   StealMeter // read at the start of every round
	// perCase sums call time by case index, for per-case comparisons
	// between the untraced and traced phases.
	perCase []time.Duration
	opsCase []int
}

func newOpStats(cases int) *opStats {
	return &opStats{start: time.Now(), perCase: make([]time.Duration, cases), opsCase: make([]int, cases)}
}

// add records a call of case ci, made in round round, that started at t0
// and matched n bytes.
func (s *opStats) add(round, ci int, t0 time.Time, n int) {
	d := time.Since(t0)
	s.samples = append(s.samples, Sample{Block: round, At: t0.Sub(s.start), Dur: d, Bytes: n})
	s.perCase[ci] += d
	s.opsCase[ci]++
}

// meanCase is the mean call time of case ci.
func (s *opStats) meanCase(ci int) time.Duration {
	if s.opsCase[ci] == 0 {
		return 0
	}
	return s.perCase[ci] / time.Duration(s.opsCase[ci])
}

// runUntraced drives the public entry point over the cases, round-robin,
// until the deadline has passed and every case has run at least once.
// Every result is checked against its reference.
func (w *libWorkload) runUntraced(out *Output, d time.Duration) *opStats {
	st := newOpStats(len(w.cases))
	deadline := st.start.Add(d)
	i := 0
	for ; i < len(w.cases) || time.Now().Before(deadline); i++ {
		if i%len(w.cases) == 0 {
			st.steal.Mark(i / len(w.cases))
		}
		w.op(out, i, st)
	}
	st.steal.Mark((i + len(w.cases) - 1) / len(w.cases))
	return st
}

// op runs operation i, on case i mod len(cases) — a call, or for streams
// a whole session of 4 KiB writes, each write timed as one call — and
// checks it.
func (w *libWorkload) op(out *Output, i int, st *opStats) {
	ci, round := i%len(w.cases), i/len(w.cases)
	c := w.cases[ci]
	switch w.entry {
	case entryMatch:
		t0 := time.Now()
		ms := c.a.Match(c.input)
		st.add(round, ci, t0, len(c.input))
		out.Attempted++
		if !out.Gate.CheckMatches(w.what(c), ms, c.ref) {
			out.Failed++
		}
	case entryStream:
		s := c.a.NewStream()
		c.hits = c.hits[:0]
		for off := 0; off < len(c.input); off += ChunkSize {
			chunk := c.input[off:min(off+ChunkSize, len(c.input))]
			t0 := time.Now()
			ms := s.Write(chunk)
			st.add(round, ci, t0, len(chunk))
			out.Attempted++
			for _, m := range ms {
				c.hits = append(c.hits, Hit{Offset: m.Offset, Code: m.Code})
			}
		}
		s.Close()
		if !out.Gate.CheckHits(w.what(c), c.hits, c.ref) {
			out.Failed++
		}
	case entryParallel:
		t0 := time.Now()
		rep, err := c.a.MatchParallel(c.input, pap.DefaultConfig(Ranks))
		st.add(round, ci, t0, len(c.input))
		out.Attempted++
		switch {
		case err != nil:
			out.Failed++
			out.Gate.Fail(fmt.Sprintf("%s: %v", w.what(c), err))
		case !rep.Stats.Verified:
			out.Failed++
			out.Gate.Fail(w.what(c) + ": Stats.Verified is false")
		case !out.Gate.CheckMatches(w.what(c), rep.Matches, c.ref):
			out.Failed++
		case !c.sameModel(modelOf(rep.Stats)):
			out.Failed++
			out.Gate.Fail(w.what(c) + ": modelled figures differ between runs of the same input")
		}
	}
}

func (w *libWorkload) what(c *libCase) string {
	return fmt.Sprintf("%s %s (%d bytes)", w.name, c.rs.Name, len(c.input))
}

// modelledStats are the deterministic modelled figures of one parallel
// run. They never involve wall-clock time, so every run of one input
// must reproduce them exactly.
type modelledStats struct {
	Segments          int
	BaselineNS        float64
	ParallelNS        float64
	Speedup           float64
	AvgActiveFlows    float64
	SwitchOverheadPct float64
	FalseReportRatio  float64
}

func modelOf(s pap.RunStats) modelledStats {
	return modelledStats{s.Segments, s.BaselineNS, s.ParallelNS, s.Speedup,
		s.AvgActiveFlows, s.SwitchOverheadPct, s.FalseReportRatio}
}

// sameModel records the first run's modelled figures and compares later
// runs with them.
func (c *libCase) sameModel(m modelledStats) bool {
	if c.model == nil {
		c.model = &m
		return true
	}
	return *c.model == m
}

// allocPass runs each case once more and reports heap bytes allocated
// per input byte, counting only the entry-point calls.
func (w *libWorkload) allocPass(out *Output) {
	var total, nbytes uint64
	var before, after runtime.MemStats
	st := newOpStats(len(w.cases))
	// Room for every write of the pass, so recording a sample never
	// allocates inside a measured call.
	st.samples = make([]Sample, 0, 8*len(w.cases))
	for ci, c := range w.cases {
		runtime.ReadMemStats(&before)
		switch w.entry {
		case entryMatch:
			ms := c.a.Match(c.input)
			runtime.ReadMemStats(&after)
			out.Gate.CheckMatches(w.what(c), ms, c.ref)
		case entryStream:
			// The session's hit buffer is preallocated, so collecting
			// hits adds nothing to the count.
			w.op(out, ci, st)
			runtime.ReadMemStats(&after)
		case entryParallel:
			rep, err := c.a.MatchParallel(c.input, pap.DefaultConfig(Ranks))
			runtime.ReadMemStats(&after)
			if err != nil || !rep.Stats.Verified {
				out.Gate.Fail(w.what(c) + ": allocation pass run failed")
			}
		}
		total += after.TotalAlloc - before.TotalAlloc
		nbytes += uint64(len(c.input))
	}
	out.Set("alloc_b_per_byte", float64(total)/float64(nbytes))
}

// report sets the end-to-end figures of an untraced phase.
func (w *libWorkload) report(out *Output, st *opStats) {
	Reduce(st.samples, &st.steal, true).Set(out)
	out.Set("ok_ratio", 1-safeDiv(float64(out.Failed), float64(out.Attempted)))
	out.Set("modelled_speedup", w.modelledSpeedup())
}

// modelledSpeedup is modelled sequential-AP cycles over modelled PAP
// cycles, summed over the distinct inputs. Sequential entry points run
// one modelled AP flow, so their speedup is 1 by definition.
func (w *libWorkload) modelledSpeedup() float64 {
	if w.entry != entryParallel {
		return 1
	}
	var base, par float64
	for _, c := range w.cases {
		if c.model != nil {
			base += c.model.BaselineNS
			par += c.model.ParallelNS
		}
	}
	return safeDiv(base, par)
}

// runTraced is the traced counterpart of runUntraced: each operation is
// rebuilt from calls into the layers below the public entry point, and
// every call is wrapped in a span. Results are checked as in the
// untraced run.
func (w *libWorkload) runTraced(out *Output, tr *Tracer, views map[*Ruleset]engineView, d time.Duration) *opStats {
	st := newOpStats(len(w.cases))
	deadline := st.start.Add(d)
	for i := 0; i < len(w.cases) || time.Now().Before(deadline); i++ {
		ci, round := i%len(w.cases), i/len(w.cases)
		c := w.cases[ci]
		switch w.entry {
		case entryMatch:
			t0 := time.Now()
			op := tr.Start(i+1, 0, "op")
			sp := tr.Start(i+1, op, "engine.run")
			v := views[c.rs]
			res := engine.RunEngineOpts(v.n, c.input, engine.Auto, v.tab,
				engine.RunOpts{LiteralPrefilter: true})
			tr.End(sp)
			sp = tr.Start(i+1, op, "engine.dedupe")
			reports := engine.DedupeReports(res.Reports)
			tr.End(sp)
			tr.End(op)
			st.add(round, ci, t0, len(c.input))
			out.Attempted++
			c.hits = c.hits[:0]
			for _, r := range reports {
				c.hits = append(c.hits, Hit{Offset: r.Offset, Code: r.Code})
			}
			if !out.Gate.CheckHits(w.what(c), c.hits, c.ref) {
				out.Failed++
			}
		case entryStream:
			op := tr.Start(i+1, 0, "op")
			sp := tr.Start(i+1, op, "pap.NewStream")
			s := c.a.NewStream()
			tr.End(sp)
			c.hits = c.hits[:0]
			for off := 0; off < len(c.input); off += ChunkSize {
				chunk := c.input[off:min(off+ChunkSize, len(c.input))]
				t0 := time.Now()
				sp := tr.Start(i+1, op, "pap.Stream.Write")
				ms := s.Write(chunk)
				tr.End(sp)
				st.add(round, ci, t0, len(chunk))
				out.Attempted++
				for _, m := range ms {
					c.hits = append(c.hits, Hit{Offset: m.Offset, Code: m.Code})
				}
			}
			tr.End(op)
			s.Close()
			if !out.Gate.CheckHits(w.what(c), c.hits, c.ref) {
				out.Failed++
			}
		case entryParallel:
			t0 := time.Now()
			res, err := tracedParallel(tr, i+1, c.rs, c.input)
			st.add(round, ci, t0, len(c.input))
			out.Attempted++
			if err != nil || !res.Correct {
				out.Failed++
				out.Gate.Fail(fmt.Sprintf("%s: traced parallel run: %v", w.what(c), err))
				continue
			}
			if !out.Gate.CheckHits(w.what(c), hitsOf(res.Reports), c.ref) {
				out.Failed++
			}
		}
	}
	return st
}

// tracedParallel is MatchParallel(input, pap.DefaultConfig(4)) rebuilt
// from core's public functions: plan, then execute (which runs the golden
// boundary pass, enumeration, convergence, deactivation and composition).
func tracedParallel(tr *Tracer, opID int, rs *Ruleset, input []byte) (*core.Result, error) {
	op := tr.Start(opID, 0, "op")
	defer tr.End(op)
	sp := tr.Start(opID, op, "core.plan")
	plan, err := core.NewPlan(rs.NFA, input, core.DefaultConfig(Ranks))
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.Start(opID, op, "core.execute")
	res, err := plan.ExecuteContext(context.Background(), input)
	tr.End(sp)
	return res, err
}

// goldenProbe times the golden boundary run Plan.ExecuteContext performs
// first, over the same cuts, on fresh tables as a new plan has.
func goldenProbe(tr *Tracer, opID int, rs *Ruleset, input []byte) error {
	plan, err := core.NewPlan(rs.NFA, input, core.DefaultConfig(Ranks))
	if err != nil {
		return err
	}
	sp := tr.Start(opID, 0, "core.golden")
	engine.RunWithBoundariesEngine(rs.NFA, input, plan.Cuts, plan.Cfg.Engine, engine.NewTables(rs.NFA))
	tr.End(sp)
	return nil
}

func hitsOf(rs []engine.Report) []Hit {
	out := make([]Hit, len(rs))
	for i, r := range rs {
		out[i] = Hit{Offset: r.Offset, Code: r.Code}
	}
	return out
}
