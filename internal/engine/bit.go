package engine

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"pap/internal/bitset"
	"pap/internal/nfa"
	"pap/internal/prefilter"
)

// Tables holds per-automaton precomputed match vectors: for each symbol σ,
// the set of states whose label contains σ. On the AP this is the DRAM row
// addressed by σ; reading it is the state-match phase. Tables are built
// lazily per symbol with atomic publication, so one Tables may be shared by
// any number of engines across goroutines (the engines themselves remain
// single-goroutine). Call BuildAll to pay the whole construction cost up
// front instead.
type Tables struct {
	n     *nfa.NFA
	match [256]atomic.Pointer[bitset.Set]

	// pfOnce/pf lazily build the automaton's prefilter, shared by every
	// MetaKind run loop and stream over this automaton (see PrefilterFor).
	pfOnce sync.Once
	pf     *prefilter.Prefilter

	// edgeOnce flattens the successor lists into CSR form and caches the
	// reporting-state mask, so the bit engine's batched kernel walks plain
	// arrays instead of calling back into the NFA per fired state.
	edgeOnce sync.Once
	succOff  []int32       // CSR offsets, len n.Len()+1
	succ     []nfa.StateID // flattened successor lists
	repWord  []uint64      // reporting-state mask, bit-vector word layout
	repCode  []int32       // per-state report code

	// skipOnce compiles the baseline-skip scanner: the byte class that can
	// move a frontier off the ASG-only baseline (exactly the prefilter
	// start class), or nil when scanning cannot pay off.
	skipOnce sync.Once
	skip     *prefilter.ClassScanner
}

// Prefilter returns the automaton's compiled prefilter, built on first
// use and shared by every engine over these tables (it is immutable and
// safe for concurrent use).
func (t *Tables) Prefilter() *prefilter.Prefilter {
	t.pfOnce.Do(func() { t.pf = prefilter.Build(t.n) })
	return t.pf
}

// NewTables returns empty (lazily filled) match tables for n.
func NewTables(n *nfa.NFA) *Tables { return &Tables{n: n} }

// Match returns the match vector for symbol sym, building it on first use.
// Concurrent first uses may build duplicate vectors; exactly one wins the
// publication race and all callers observe that one thereafter.
func (t *Tables) Match(sym byte) *bitset.Set {
	if m := t.match[sym].Load(); m != nil {
		return m
	}
	m := bitset.New(t.n.Len())
	for q := 0; q < t.n.Len(); q++ {
		if t.n.Label(nfa.StateID(q)).Test(sym) {
			m.Set(q)
		}
	}
	if t.match[sym].CompareAndSwap(nil, m) {
		return m
	}
	return t.match[sym].Load()
}

// BuildAll eagerly fills every symbol's match vector and returns t.
func (t *Tables) BuildAll() *Tables {
	for s := 0; s < 256; s++ {
		t.Match(byte(s))
	}
	return t
}

// edges builds (once) and returns the CSR successor arrays and the
// reporting-state mask shared by every bit engine over these tables.
func (t *Tables) edges() (succOff []int32, succ []nfa.StateID, repWord []uint64, repCode []int32) {
	t.edgeOnce.Do(func() {
		n := t.n
		t.succOff = make([]int32, n.Len()+1)
		t.succ = make([]nfa.StateID, 0, n.Edges())
		t.repWord = make([]uint64, (n.Len()+63)/64)
		t.repCode = make([]int32, n.Len())
		for q := 0; q < n.Len(); q++ {
			t.succOff[q] = int32(len(t.succ))
			t.succ = append(t.succ, n.Succ(nfa.StateID(q))...)
			st := n.State(nfa.StateID(q))
			if st.Flags&nfa.Report != 0 {
				t.repWord[q>>6] |= 1 << (uint(q) & 63)
			}
			t.repCode[q] = st.ReportCode
		}
		t.succOff[n.Len()] = int32(len(t.succ))
	})
	return t.succOff, t.succ, t.repWord, t.repCode
}

// BaselineSkip returns the automaton's baseline-skip scanner — the exact
// byte class that can fire an all-input state, compiled once per Tables —
// or nil when the class saturates the alphabet and scanning cannot pay
// off. It shares the prefilter's start-class machinery and is safe for
// concurrent use.
func (t *Tables) BaselineSkip() *prefilter.ClassScanner {
	t.skipOnce.Do(func() {
		if s := prefilter.NewClassScanner(prefilter.StartClass(t.n)); s.Useful() {
			t.skip = s
		}
	})
	return t.skip
}

// Bit is the dense state-vector engine, mirroring the AP's per-STE enable
// mask. It is slower than Sparse for sparse frontiers but is the reference
// for state-vector semantics (SVC entries, convergence compares).
type Bit struct {
	n        *nfa.NFA
	tab      *Tables
	baseline bool
	enabled  *bitset.Set // excluding all-input states
	firedBs  *bitset.Set
	scratch  *bitset.Set
	allIn    *bitset.Set
	trans    int64

	// Batched hot loop + baseline skip (StepBatch): CSR edges and the
	// reporting mask cached from the shared Tables, the start-class
	// scanner, and the fast-path switch and counter.
	succOff []int32
	succ    []nfa.StateID
	repWord []uint64
	repCode []int32
	skip    *prefilter.ClassScanner
	skipOn  bool
	skipped int64

	// Score tracking (see Scorer): per-state arrays parallel to the enabled
	// and scratch bit vectors, swapped alongside them each step. A slot is
	// valid only while its bit is set, so stale values are never read.
	scoring  bool
	scoreCur []int64
	scoreNxt []int64
}

// NewBit returns a Bit engine at the start configuration, sharing tab.
func NewBit(n *nfa.NFA, tab *Tables) *Bit {
	if tab == nil {
		tab = NewTables(n)
	}
	e := &Bit{
		n:        n,
		tab:      tab,
		baseline: true,
		enabled:  bitset.New(n.Len()),
		firedBs:  bitset.New(n.Len()),
		scratch:  bitset.New(n.Len()),
		allIn:    bitset.New(n.Len()),
		skip:     tab.BaselineSkip(),
		skipOn:   true,
	}
	e.succOff, e.succ, e.repWord, e.repCode = tab.edges()
	for _, q := range n.AllInputStates() {
		e.allIn.Set(int(q))
	}
	e.Reset(n.StartStates())
	return e
}

// Reset replaces the enabled vector with the given seed states.
func (e *Bit) Reset(seed []nfa.StateID) {
	e.ResetScored(seed, nil)
}

// SetScoring switches score tracking (see Scorer).
func (e *Bit) SetScoring(on bool) {
	e.scoring = on
	if on && e.scoreCur == nil {
		e.scoreCur = make([]int64, e.n.Len())
		e.scoreNxt = make([]int64, e.n.Len())
	}
}

// ResetScored is Reset with per-seed entry scores (see Scorer). scores may
// be nil; ignored unless scoring is on.
func (e *Bit) ResetScored(seed []nfa.StateID, scores []int64) {
	e.enabled.Reset()
	for i, q := range seed {
		if e.scoring {
			var sc int64
			if scores != nil {
				sc = scores[i]
			}
			if !e.enabled.Test(int(q)) || sc > e.scoreCur[q] {
				e.scoreCur[q] = sc
			}
		}
		e.enabled.Set(int(q))
	}
	e.enabled.AndNot(e.allIn)
}

// FrontierScore returns the best-path score of enabled state q.
func (e *Bit) FrontierScore(q nfa.StateID) int64 {
	if !e.scoring || e.allIn.Test(int(q)) {
		return 0
	}
	return e.scoreCur[q]
}

// SetBaseline switches baseline injection; see Sparse.SetBaseline.
func (e *Bit) SetBaseline(on bool) { e.baseline = on }

// Step consumes one symbol at the given offset. emit may be nil.
func (e *Bit) Step(sym byte, off int64, emit EmitFunc) {
	if e.scoring {
		e.stepScored(sym, off, emit)
		return
	}
	// State match phase: fired = (enabled ∪ allInput) ∩ match[sym].
	fired := e.firedBs
	fired.Copy(e.enabled)
	if e.baseline {
		fired.Or(e.allIn)
	}
	fired.And(e.tab.Match(sym))
	// State transition phase: next = ∪ succ(fired).
	next := e.scratch
	next.Reset()
	n := e.n
	fired.ForEach(func(i int) bool {
		q := nfa.StateID(i)
		st := n.State(q)
		if st.Flags&nfa.Report != 0 && emit != nil {
			emit(Report{Offset: off, State: q, Code: st.ReportCode})
		}
		succ := n.Succ(q)
		e.trans += int64(len(succ))
		for _, c := range succ {
			next.Set(int(c))
		}
		return true
	})
	next.AndNot(e.allIn)
	e.scratch, e.enabled = e.enabled, next
}

// stepScored is Step with score propagation — the scored twin of Step,
// kept separate so the unscored path (and the vectorized StepBatch kernel)
// stays score-free. Scores live in per-state arrays keyed by the frontier
// bitset: scoreCur is valid where enabled is set, scoreNxt is built where
// next is set, and the arrays swap with the vectors.
func (e *Bit) stepScored(sym byte, off int64, emit EmitFunc) {
	fired := e.firedBs
	fired.Copy(e.enabled)
	if e.baseline {
		fired.Or(e.allIn)
	}
	fired.And(e.tab.Match(sym))
	next := e.scratch
	next.Reset()
	n := e.n
	cur, nxt := e.scoreCur, e.scoreNxt
	fired.ForEach(func(i int) bool {
		q := nfa.StateID(i)
		var base int64
		if !e.allIn.Test(i) {
			base = cur[q]
		}
		st := n.State(q)
		if st.Flags&nfa.Report != 0 && emit != nil {
			emit(Report{Offset: off, State: q, Code: st.ReportCode, Score: base})
		}
		succ := n.Succ(q)
		w := n.SuccScores(q)
		e.trans += int64(len(succ))
		for si, c := range succ {
			cand := base
			if w != nil {
				cand += int64(w[si])
			}
			if !next.Test(int(c)) || cand > nxt[c] {
				nxt[c] = cand
			}
			next.Set(int(c))
		}
		return true
	})
	next.AndNot(e.allIn)
	e.scratch, e.enabled = e.enabled, next
	e.scoreCur, e.scoreNxt = nxt, cur
}

// skipAhead returns the number of leading input symbols a dead frontier
// provably cannot react to, consuming them. Without baseline injection a
// dead frontier is dead forever; with it, only a start-class byte can fire
// anything, so the scan jumps straight to the next candidate. Consumed
// symbols change no observable beyond the BaselineSkipped counter —
// nothing fires, no edge is traversed, no report is emitted — and callers
// still charge each one its modelled round.
func (e *Bit) skipAhead(input []byte) int {
	if !e.skipOn {
		return 0
	}
	var j int
	if e.baseline {
		if e.skip == nil {
			return 0
		}
		j = e.skip.NextIn(input, 0, len(input))
	} else {
		j = len(input)
	}
	if j > 0 {
		e.firedBs.Reset() // nothing fired on the last consumed symbol
		e.skipped += int64(j)
	}
	return j
}

// StepBatch consumes between 1 and len(input) symbols starting at absolute
// offset off, observably identical to calling Step once per consumed
// symbol. The hot loop processes up to batchSymbols per invocation: the
// block's match vectors are resolved up front (the batched table lookup),
// the state-match phase runs as fused word-wide bitset ops, and successor
// expansion walks the shared CSR edge arrays with the word slices hoisted
// out of the per-state loop. A dead frontier takes the baseline-skip fast
// path instead (see skipAhead). It returns the consumed count with the sum
// and maximum of the frontier length over the consumed symbols, so callers
// keep per-symbol frontier statistics exact. len(input) must be > 0.
func (e *Bit) StepBatch(input []byte, off int64, emit EmitFunc) (consumed int, sumFrontier int64, maxFrontier int) {
	if e.enabled.Empty() {
		if n := e.skipAhead(input); n > 0 {
			return n, 0, 0
		}
	}
	if e.scoring {
		// Score tracking runs through the scalar scored step; the vectorized
		// kernel below stays score-free so the unscored hot path is untouched.
		// The dead-frontier skip above remains exact: skipped symbols fire
		// nothing, so no score can change.
		return stepEach(e, input, off, emit)
	}
	k := min(len(input), batchSymbols)
	var mats [batchSymbols]*bitset.Set
	for j := 0; j < k; j++ {
		mats[j] = e.tab.Match(input[j])
	}
	fired := e.firedBs
	en, nx := e.enabled, e.scratch
	fdW := fired.Words()
	succOff, succ := e.succOff, e.succ
	repWord, repCode := e.repWord, e.repCode
	trans := e.trans
	j := 0
	for j < k {
		// State match phase: fired = (enabled ∪ allInput) ∩ match[sym].
		if e.baseline {
			fired.OrAndOf(en, e.allIn, mats[j])
		} else {
			fired.AndOf(en, mats[j])
		}
		// State transition phase: next = ∪ succ(fired), minus all-input.
		nx.Reset()
		nxW := nx.Words()
		for wi, w := range fdW {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				q := wi<<6 | b
				if repWord[wi]&(1<<uint(b)) != 0 && emit != nil {
					emit(Report{Offset: off + int64(j), State: nfa.StateID(q), Code: repCode[q]})
				}
				lo, hi := succOff[q], succOff[q+1]
				trans += int64(hi - lo)
				for _, c := range succ[lo:hi] {
					nxW[int(c)>>6] |= 1 << (uint(c) & 63)
				}
			}
		}
		cnt := nx.AndNotCount(e.allIn)
		en, nx = nx, en
		j++
		sumFrontier += int64(cnt)
		if cnt > maxFrontier {
			maxFrontier = cnt
		}
		if cnt == 0 {
			// Frontier died mid-batch: return so the caller's next call
			// takes the skip path from the exact death position.
			break
		}
	}
	e.trans = trans
	e.enabled, e.scratch = en, nx
	return j, sumFrontier, maxFrontier
}

// SetBaselineSkip enables or disables the baseline-skip fast path
// (enabled by default); disabling forces every symbol through the
// stepping loop, the ablation the conformance harness exercises.
func (e *Bit) SetBaselineSkip(on bool) { e.skipOn = on }

// Stats reports the baseline-skip count.
func (e *Bit) Stats() Stats { return Stats{BaselineSkipped: e.skipped} }

// clearFired empties the fired set (used by wrappers that skip input on
// this engine's behalf: nothing fired on a skipped symbol).
func (e *Bit) clearFired() { e.firedBs.Reset() }

// Enabled returns the current enabled vector (excluding all-input states).
// The set is owned by the engine and invalidated by the next Step.
func (e *Bit) Enabled() *bitset.Set { return e.enabled }

// Fired returns the states that fired on the most recent Step.
func (e *Bit) Fired() *bitset.Set { return e.firedBs }

// Transitions returns cumulative transition-edge traversals.
func (e *Bit) Transitions() int64 { return e.trans }

// FrontierLen returns the number of enabled states (excluding all-input).
func (e *Bit) FrontierLen() int { return e.enabled.Count() }

// Dead reports whether the frontier is empty.
func (e *Bit) Dead() bool { return e.enabled.Empty() }

// Fingerprint returns the Zobrist fingerprint of the enabled vector,
// identical to the sparse engine's over the same frontier.
func (e *Bit) Fingerprint() uint64 {
	var fp uint64
	e.enabled.ForEach(func(i int) bool {
		fp ^= Key(nfa.StateID(i))
		return true
	})
	return fp
}

// AppendFrontier appends the enabled states to dst in ascending order.
func (e *Bit) AppendFrontier(dst []nfa.StateID) []nfa.StateID {
	e.enabled.ForEach(func(i int) bool {
		dst = append(dst, nfa.StateID(i))
		return true
	})
	return dst
}

// AppendFired appends the states that fired on the most recent Step, in
// ascending order.
func (e *Bit) AppendFired(dst []nfa.StateID) []nfa.StateID {
	e.firedBs.ForEach(func(i int) bool {
		dst = append(dst, nfa.StateID(i))
		return true
	})
	return dst
}

// FrontierSet returns a fresh copy of the enabled vector.
func (e *Bit) FrontierSet() *bitset.Set { return e.enabled.Clone() }
