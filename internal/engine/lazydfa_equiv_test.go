package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pap/internal/conformance"
	"pap/internal/engine"
	"pap/internal/nfa"
)

// checkObservables fails the test if any engine disagrees with the first
// on the observable state: fingerprint, frontier length and set, liveness
// and cumulative transitions.
func checkObservables(t *testing.T, ctx string, names []string, engines []engine.Engine) {
	t.Helper()
	ref := engines[0]
	for i, e := range engines[1:] {
		if e.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("%s: %s fingerprint %#x, %s %#x",
				ctx, names[i+1], e.Fingerprint(), names[0], ref.Fingerprint())
		}
		if e.FrontierLen() != ref.FrontierLen() {
			t.Fatalf("%s: %s FrontierLen %d, %s %d",
				ctx, names[i+1], e.FrontierLen(), names[0], ref.FrontierLen())
		}
		if e.Dead() != ref.Dead() {
			t.Fatalf("%s: %s Dead %v, %s %v",
				ctx, names[i+1], e.Dead(), names[0], ref.Dead())
		}
		if e.Transitions() != ref.Transitions() {
			t.Fatalf("%s: %s transitions %d, %s %d",
				ctx, names[i+1], e.Transitions(), names[0], ref.Transitions())
		}
		if !ref.FrontierSet().Equal(e.FrontierSet()) {
			t.Fatalf("%s: %s frontier diverged from %s", ctx, names[i+1], names[0])
		}
	}
}

// TestLazyDFAEquivalence is the differential property test for the lazy
// DFA: on random automata and inputs from the conformance generators
// (multi-component shapes, all-always-active components, sparse-match and
// boundary inputs) — with mid-run Resets and baseline flips — the default
// engine, cache-starved engines (which flush and then fall back
// permanently mid-run, to sparse and to adaptive), and the meta stack must
// all agree with the sparse reference on every observable at every step.
func TestLazyDFAEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	fellBack := 0
	for trial := 0; trial < 50; trial++ {
		spec := conformance.RandomSpec(rng)
		n, err := spec.Build()
		if err != nil {
			continue
		}
		tab := engine.NewTables(n)
		names := []string{"sparse", "lazydfa", "lazydfa-starved", "meta", "meta-starved"}
		engines := []engine.Engine{
			engine.NewSparse(n),
			engine.New(engine.LazyDFAKind, n, tab),
			engine.NewLazyDFAForTest(n, 2, 1, func() engine.Engine { return engine.NewSparse(n) }),
			engine.New(engine.MetaKind, n, tab),
			engine.NewLazyDFAForTest(n, 2, 1, func() engine.Engine { return engine.NewAdaptive(n, tab) }),
		}
		reports := make([][]engine.Report, len(engines))
		emits := make([]engine.EmitFunc, len(engines))
		for i := range engines {
			i := i
			emits[i] = func(r engine.Report) { reports[i] = append(reports[i], r) }
		}
		input := conformance.RandomInput(rng, spec)
		baseline := true
		for i, sym := range input {
			if rng.Intn(24) == 0 {
				var seed []nfa.StateID
				for q := 0; q < n.Len(); q++ {
					if rng.Intn(3) == 0 {
						seed = append(seed, nfa.StateID(q))
					}
				}
				for _, e := range engines {
					e.Reset(seed)
				}
			}
			if rng.Intn(30) == 0 {
				baseline = !baseline
				for _, e := range engines {
					e.SetBaseline(baseline)
				}
			}
			for j, e := range engines {
				e.Step(sym, int64(i), emits[j])
			}
			checkObservables(t, fmt.Sprintf("trial %d off %d", trial, i), names, engines)
		}
		for i := 1; i < len(engines); i++ {
			if !engine.SameReports(reports[0], reports[i]) {
				t.Fatalf("trial %d (spec %v): %s reports diverged from sparse",
					trial, spec, names[i])
			}
		}
		if engines[2].Stats().Cache.FellBack && engines[4].Stats().Cache.FellBack {
			fellBack++
		}
	}
	if fellBack == 0 {
		t.Fatal("no trial drove the starved engines into fallback")
	}
	t.Logf("starved engines fell back in %d trials", fellBack)
}
