package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pap/internal/nfa"
)

// denseNFA is a high-fanout automaton whose frontier keeps changing on a
// varied input — cache-hostile by construction. Every label is {a, b}, so
// any other byte kills the frontier down to the all-input baseline.
func denseNFA(states int) *nfa.NFA {
	b := nfa.NewBuilder("dense")
	for i := 0; i < states; i++ {
		flags := nfa.Flags(0)
		if i == 0 {
			flags = nfa.AllInput
		}
		b.AddState(nfa.ClassOf('a', 'b'), flags)
	}
	for i := 0; i < states; i++ {
		b.AddEdge(nfa.StateID(i), nfa.StateID((i+1)%states))
		b.AddEdge(nfa.StateID(i), nfa.StateID((i*7+3)%states))
	}
	return b.MustBuild()
}

// TestLazyDFAFallbackContinuity starves the cache until permanent
// fallback and checks that the engine stays observably exact through the
// flush and the switch: cumulative transitions equal the sparse
// reference's, and the cache stats record the journey.
func TestLazyDFAFallbackContinuity(t *testing.T) {
	n := denseNFA(64)
	e := newLazyDFA(n, 4, 1, func() Engine { return NewSparse(n) })
	sp := NewSparse(n)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		sym := []byte("abab z")[rng.Intn(6)]
		e.Step(sym, int64(i), nil)
		sp.Step(sym, int64(i), nil)
		if e.Fingerprint() != sp.Fingerprint() {
			t.Fatalf("fingerprint diverged at offset %d", i)
		}
	}
	if e.Transitions() != sp.Transitions() {
		t.Fatalf("transitions = %d, want %d", e.Transitions(), sp.Transitions())
	}
	cs := e.Stats().Cache
	if !cs.FellBack {
		t.Fatalf("engine never fell back on a cache-hostile workload: %+v", cs)
	}
	if cs.Evictions == 0 {
		t.Fatalf("fallback recorded no evictions: %+v", cs)
	}
	if cs.Flushes != 1 {
		t.Fatalf("flushes = %d, want 1 (the whole budget)", cs.Flushes)
	}
	// Post-fallback the engine must keep working: Reset and more steps.
	e.Reset(n.StartStates())
	sp.Reset(n.StartStates())
	for i := 0; i < 100; i++ {
		e.Step('a', int64(i), nil)
		sp.Step('a', int64(i), nil)
	}
	if e.Fingerprint() != sp.Fingerprint() {
		t.Fatal("fingerprint diverged after post-fallback reset")
	}
}

// TestLazyDFACacheReplay drives a periodic input: after the first period
// populates the cache, subsequent periods must be pure hits.
func TestLazyDFACacheReplay(t *testing.T) {
	n := denseNFA(16)
	e := New(LazyDFAKind, n, nil)
	pattern := []byte("ababz abz")
	var off int64
	for rep := 0; rep < 50; rep++ {
		for _, sym := range pattern {
			e.Step(sym, off, nil)
			off++
		}
	}
	cs := e.Stats().Cache
	if cs.FellBack {
		t.Fatalf("fell back on a trivially periodic workload: %+v", cs)
	}
	if cs.Hits < cs.Misses*10 {
		t.Fatalf("hits = %d, misses = %d; periodic input should be nearly all hits", cs.Hits, cs.Misses)
	}
	if cs.States > len(pattern)*4 {
		t.Fatalf("cached states = %d for a %d-symbol period", cs.States, len(pattern))
	}
}

// TestMetaObservability checks the meta stack's introspection: its run
// loops get a prefilter (on an automaton with a narrow start class), other
// kinds get none, and the engine surfaces its lazy-DFA cache stats.
func TestMetaObservability(t *testing.T) {
	b := nfa.NewBuilder("narrow")
	root := b.AddState(nfa.ClassOf('G'), nfa.AllInput)
	tail := b.AddState(nfa.ClassOf('T'), 0)
	b.SetFlags(tail, nfa.Report)
	b.AddEdge(root, tail)
	n := b.MustBuild()

	tab := NewTables(n)
	if PrefilterFor(MetaKind, tab) == nil {
		t.Fatal("MetaKind over a narrow start class gets no prefilter")
	}
	for _, k := range []Kind{Auto, SparseKind, BitKind, LazyDFAKind} {
		if PrefilterFor(k, tab) != nil {
			t.Fatalf("%v unexpectedly gets a prefilter", k)
		}
	}
	e := New(MetaKind, n, tab)
	for i := 0; i < 100; i++ {
		e.Step("GTz"[i%3], int64(i), nil)
	}
	if cs := e.Stats().Cache; cs.Hits == 0 {
		t.Fatalf("meta lazy-DFA cache recorded no hits: %+v", cs)
	}
}

// TestMetaFallbackBaselineSkip starves a meta-shaped engine (lazy DFA over
// an adaptive fallback) into permanent fallback, then feeds quiet input
// through StepBatch: the fallback's baseline-skip fast path must engage
// and show in Stats, every observable (and the per-window frontier
// statistics StepBatch returns) must match the sparse reference, and
// a skip setting made before the fallback existed must still hold after.
func TestMetaFallbackBaselineSkip(t *testing.T) {
	n := denseNFA(64)
	tab := NewTables(n)
	meta := func() *LazyDFA {
		return newLazyDFA(n, 2, 1, func() Engine { return NewAdaptive(n, tab) })
	}
	skip, noSkip := meta(), meta()
	noSkip.SetBaselineSkip(false)
	names := []string{"sparse", "meta-skip", "meta-noskip"}
	all := []Engine{NewSparse(n), skip, noSkip}
	reports := make([][]Report, len(all))
	emits := make([]EmitFunc, len(all))
	for k := range all {
		k := k
		emits[k] = func(r Report) { reports[k] = append(reports[k], r) }
	}

	rng := rand.New(rand.NewSource(3))
	busy := make([]byte, 400)
	for i := range busy {
		busy[i] = "abab z"[rng.Intn(6)]
	}
	quiet := bytes.Repeat(append(bytes.Repeat([]byte("z"), 150), "ab"...), 8)
	input := append(busy, quiet...)
	for i := 0; i < len(input); {
		w := min(1+rng.Intn(100), len(input)-i)
		var refSum int64
		refMax := 0
		for j := 0; j < w; j++ {
			all[0].Step(input[i+j], int64(i+j), emits[0])
			refSum += int64(all[0].FrontierLen())
			refMax = max(refMax, all[0].FrontierLen())
		}
		for k, e := range all[1:] {
			var sum int64
			mx := 0
			for p := i; p < i+w; {
				c, s, m := e.StepBatch(input[p:i+w], int64(p), emits[k+1])
				p += c
				sum += s
				mx = max(mx, m)
			}
			if sum != refSum || mx != refMax {
				t.Fatalf("%s window at %d: frontier stats sum %d max %d, sparse sum %d max %d",
					names[k+1], i, sum, mx, refSum, refMax)
			}
		}
		i += w
		checkAgreement(t, fmt.Sprintf("after %d symbols", i), names, all)
	}
	for k := 1; k < len(all); k++ {
		if !SameReports(reports[0], reports[k]) {
			t.Fatalf("%s reports diverged from sparse", names[k])
		}
	}
	st := skip.Stats()
	if !st.Cache.FellBack {
		t.Fatalf("tiny-cap engine never fell back: %+v", st)
	}
	if st.BaselineSkipped == 0 {
		t.Fatalf("fallen-back meta engine skipped nothing on quiet input: %+v", st)
	}
	if got := noSkip.Stats().BaselineSkipped; got != 0 {
		t.Fatalf("skip disabled before fallback, yet the fallback skipped %d bytes", got)
	}
}
