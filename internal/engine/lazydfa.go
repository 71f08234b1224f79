package engine

import (
	"slices"
	"sort"

	"pap/internal/bitset"
	"pap/internal/nfa"
)

// Lazy-DFA cache bounds: lazyMaxStates caps distinct cached frontiers per
// engine (each costs ~2 KiB per touched baseline mode for its edge table);
// lazyMaxFlushes is how many whole-cache flushes are tolerated before the
// engine falls back permanently.
const (
	lazyMaxStates  = 2048
	lazyMaxFlushes = 2
)

type lazyReport struct {
	state nfa.StateID
	code  int32
}

// lazyEdge is one fully-resolved (state, symbol, baseline-mode) step.
type lazyEdge struct {
	next    *dstate
	trans   int64 // Σ |succ(q)| over fired q — the sparse engine's delta
	fired   []nfa.StateID
	reports []lazyReport
}

// dstate is one determinized frontier: a sorted member set (all-input
// states excluded, as in every engine's frontier) plus per-mode edge
// tables, allocated lazily because most runs use one baseline mode.
type dstate struct {
	members []nfa.StateID
	fp      uint64
	edges   [2]*[256]*lazyEdge
}

// LazyDFA determinizes the NFA frontier on the fly, the way lazy-DFA regex
// engines (and the Rabin-fingerprint SDFA line of work) avoid re-deriving
// the same successor set over and over: each distinct frontier becomes one
// cached DFA state, keyed by its Zobrist fingerprint with full-member
// collision verification, and each (state, symbol, baseline-mode) step is
// resolved once into a cached edge carrying everything the step
// observably does — the successor state, the transition-count delta, the
// fired-state list, and the report templates. Replaying a cached edge is
// therefore bit-identical to stepping the sparse engine, including the
// Transitions energy proxy, so the conformance harness holds it to the
// same exact-equality bar as the other backends.
//
// The cache is bounded: when it reaches its state cap it is flushed (an
// LRU-of-generations policy — the live working set re-interns itself on
// demand), and after too many flushes the engine concludes the workload
// is cache-hostile (dense, ever-changing frontiers) and falls back
// permanently to an inner engine: sparse under LazyDFAKind, adaptive
// under MetaKind. Cumulative counters carry across the fallback, so
// observables stay exact through the switch, and from then on StepBatch,
// SetBaselineSkip and Stats reach the fallback's own fast paths. Not safe
// for concurrent use.
type LazyDFA struct {
	n          *nfa.NFA
	isAllInput []bool
	baseline   bool
	maxStates  int
	maxFlushes int

	cur   *dstate
	cache map[uint64][]*dstate
	nst   int

	flushes                 int
	hits, misses, evictions int64
	trans                   int64
	lastFired               []nfa.StateID

	fb     Engine // non-nil after permanent fallback
	newFB  func() Engine
	skipOn bool // baseline-skip setting, handed to the fallback when it is built

	mark    []int32
	epoch   int32
	scratch []nfa.StateID
}

// newLazyDFA returns a lazy DFA with the given cache bounds, positioned at
// the automaton's start configuration with baseline injection on. newFB
// builds the permanent fallback engine; it runs at most once.
func newLazyDFA(n *nfa.NFA, maxStates, maxFlushes int, newFB func() Engine) *LazyDFA {
	e := &LazyDFA{
		n:          n,
		isAllInput: make([]bool, n.Len()),
		baseline:   true,
		maxStates:  maxStates,
		maxFlushes: maxFlushes,
		newFB:      newFB,
		skipOn:     true,
		mark:       make([]int32, n.Len()),
	}
	for _, q := range n.AllInputStates() {
		e.isAllInput[q] = true
	}
	e.cache = make(map[uint64][]*dstate)
	e.intern(nil) // the empty state is the hot one: every quiet run returns to it
	e.Reset(n.StartStates())
	return e
}

// Reset replaces the frontier with the given seed states (all-input
// dropped, duplicates removed); cumulative counters are preserved.
func (e *LazyDFA) Reset(seed []nfa.StateID) {
	if e.fb != nil {
		e.fb.Reset(seed)
		return
	}
	e.lastFired = nil
	e.epoch++
	ids := e.scratch[:0]
	for _, q := range seed {
		if e.isAllInput[q] || e.mark[q] == e.epoch {
			continue
		}
		e.mark[q] = e.epoch
		ids = append(ids, q)
	}
	e.scratch = ids
	sortIDs(ids)
	e.cur = e.intern(ids)
	if e.fb != nil { // intern may have exhausted the flush budget
		e.fb.Reset(seed)
	}
}

// SetBaseline switches all-input injection (see Sparse.SetBaseline for the
// decomposition contract). Cached states keep separate edge tables per
// mode, so toggling never invalidates the cache.
func (e *LazyDFA) SetBaseline(on bool) {
	e.baseline = on
	if e.fb != nil {
		e.fb.SetBaseline(on)
	}
}

// Step consumes one symbol at the given input offset. emit may be nil.
func (e *LazyDFA) Step(sym byte, off int64, emit EmitFunc) {
	if e.fb != nil {
		e.fb.Step(sym, off, emit)
		return
	}
	mode := 0
	if e.baseline {
		mode = 1
	}
	tab := e.cur.edges[mode]
	if tab == nil {
		tab = new([256]*lazyEdge)
		e.cur.edges[mode] = tab
	}
	ed := tab[sym]
	if ed == nil {
		e.misses++
		ed = e.determinize(e.cur, sym)
		if e.fb != nil {
			// Interning the successor exhausted the cache budget: the
			// fallback engine was seeded with the pre-step frontier and now
			// takes the step itself.
			e.fb.Step(sym, off, emit)
			return
		}
		tab[sym] = ed
	} else {
		e.hits++
	}
	e.trans += ed.trans
	if emit != nil {
		for _, r := range ed.reports {
			emit(Report{Offset: off, State: r.state, Code: r.code})
		}
	}
	e.lastFired = ed.fired
	e.cur = ed.next
}

// StepBatch steps symbol by symbol like Sparse.StepBatch (a quiet
// stretch on a dead frontier does not end the batch) until the engine
// has fallen back; from then on whole batches go to the fallback's own
// StepBatch.
func (e *LazyDFA) StepBatch(input []byte, off int64, emit EmitFunc) (consumed int, sumFrontier int64, maxFrontier int) {
	if e.fb != nil {
		return e.fb.StepBatch(input, off, emit)
	}
	k := min(len(input), batchSymbols)
	dead := len(e.cur.members) == 0
	for consumed < k {
		e.Step(input[consumed], off+int64(consumed), emit)
		consumed++
		if e.fb != nil {
			// Fell back mid-batch: the fallback took this step.
			l := e.fb.FrontierLen()
			return consumed, sumFrontier + int64(l), max(maxFrontier, l)
		}
		l := len(e.cur.members)
		sumFrontier += int64(l)
		maxFrontier = max(maxFrontier, l)
		if l == 0 && (!dead || len(e.lastFired) > 0) {
			break
		}
		dead = l == 0
	}
	return consumed, sumFrontier, maxFrontier
}

// SetBaselineSkip switches the fallback engine's baseline-skip fast path,
// remembering the setting for a fallback built later. The cache itself
// has no skip path: a dead frontier is one cached-edge lookup per symbol.
func (e *LazyDFA) SetBaselineSkip(on bool) {
	e.skipOn = on
	if e.fb != nil {
		e.fb.SetBaselineSkip(on)
	}
}

// determinize resolves one (state, symbol) edge under the current
// baseline mode, reproducing exactly what the sparse engine's Step does:
// fired = label-matching members (plus all-input states when baseline is
// on), trans = Σ successor counts over fired, next = the deduplicated
// non-all-input successor union. On cache exhaustion it may trigger
// permanent fallback, in which case it returns nil and e.fb is set.
func (e *LazyDFA) determinize(d *dstate, sym byte) *lazyEdge {
	n := e.n
	ed := &lazyEdge{}
	e.epoch++
	next := e.scratch[:0]
	fire := func(q nfa.StateID) {
		st := n.State(q)
		if !st.Label.Test(sym) {
			return
		}
		ed.fired = append(ed.fired, q)
		if st.Flags&nfa.Report != 0 {
			ed.reports = append(ed.reports, lazyReport{state: q, code: st.ReportCode})
		}
		succ := n.Succ(q)
		ed.trans += int64(len(succ))
		for _, c := range succ {
			if e.isAllInput[c] || e.mark[c] == e.epoch {
				continue
			}
			e.mark[c] = e.epoch
			next = append(next, c)
		}
	}
	for _, q := range d.members {
		fire(q)
	}
	if e.baseline {
		for _, q := range n.AllInputStates() {
			fire(q)
		}
	}
	e.scratch = next
	sortIDs(next)
	ed.next = e.intern(next)
	if e.fb != nil {
		// Fallback fired while interning: seed it with the *pre-step*
		// frontier so the caller can replay this step on it.
		e.fb.Reset(d.members)
		return nil
	}
	return ed
}

// intern returns the canonical cached state for the sorted member set,
// copying ids on first sight. Reaching the cap flushes the cache while
// budget remains, then triggers permanent fallback (e.fb becomes non-nil,
// configured like this engine, and the return value must not be used).
func (e *LazyDFA) intern(ids []nfa.StateID) *dstate {
	fp := uint64(0)
	for _, q := range ids {
		fp ^= Key(q)
	}
	for _, d := range e.cache[fp] {
		if slices.Equal(d.members, ids) {
			return d
		}
	}
	if e.nst >= e.maxStates {
		if e.flushes >= e.maxFlushes {
			e.evictions += int64(e.nst)
			e.cache = nil
			e.nst = 0
			e.fb = e.newFB()
			e.fb.SetBaseline(e.baseline)
			e.fb.SetBaselineSkip(e.skipOn)
			return nil
		}
		e.flush()
	}
	d := &dstate{members: append([]nfa.StateID(nil), ids...), fp: fp}
	e.cache[fp] = append(e.cache[fp], d)
	e.nst++
	return d
}

// flush empties the cache (counting every dropped state as an eviction)
// and re-interns the empty state, which every quiet run returns to.
func (e *LazyDFA) flush() {
	e.flushes++
	e.evictions += int64(e.nst)
	e.cache = make(map[uint64][]*dstate)
	e.nst = 0
	e.cache[0] = append(e.cache[0], &dstate{})
	e.nst++
}

// FrontierLen returns the number of enabled states (excluding all-input).
func (e *LazyDFA) FrontierLen() int {
	if e.fb != nil {
		return e.fb.FrontierLen()
	}
	return len(e.cur.members)
}

// Dead reports whether the frontier is empty.
func (e *LazyDFA) Dead() bool {
	if e.fb != nil {
		return e.fb.Dead()
	}
	return len(e.cur.members) == 0
}

// Fingerprint returns the Zobrist fingerprint of the frontier.
func (e *LazyDFA) Fingerprint() uint64 {
	if e.fb != nil {
		return e.fb.Fingerprint()
	}
	return e.cur.fp
}

// Transitions returns cumulative transition-edge traversals, carried
// across cache flushes and fallback.
func (e *LazyDFA) Transitions() int64 {
	if e.fb != nil {
		return e.trans + e.fb.Transitions()
	}
	return e.trans
}

// AppendFrontier appends the enabled states (ascending) to dst.
func (e *LazyDFA) AppendFrontier(dst []nfa.StateID) []nfa.StateID {
	if e.fb != nil {
		return e.fb.AppendFrontier(dst)
	}
	return append(dst, e.cur.members...)
}

// AppendFired appends the states that fired on the most recent Step.
func (e *LazyDFA) AppendFired(dst []nfa.StateID) []nfa.StateID {
	if e.fb != nil {
		return e.fb.AppendFired(dst)
	}
	return append(dst, e.lastFired...)
}

// FrontierSet materialises the frontier as a fresh bit vector.
func (e *LazyDFA) FrontierSet() *bitset.Set {
	if e.fb != nil {
		return e.fb.FrontierSet()
	}
	s := bitset.New(e.n.Len())
	for _, q := range e.cur.members {
		s.Set(int(q))
	}
	return s
}

// Stats reports the cache counters, plus the fallback engine's
// baseline-skip and switch counters once it exists.
func (e *LazyDFA) Stats() Stats {
	var st Stats
	if e.fb != nil {
		st = e.fb.Stats()
	}
	st.Cache = CacheStats{
		Hits:      e.hits,
		Misses:    e.misses,
		Evictions: e.evictions,
		States:    e.nst,
		Flushes:   e.flushes,
		FellBack:  e.fb != nil,
	}
	return st
}

func sortIDs(ids []nfa.StateID) {
	if len(ids) > 32 {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return
	}
	// Insertion sort: small frontiers are built from sorted successor
	// lists and arrive nearly sorted.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
