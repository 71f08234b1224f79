package engine

import (
	"math/rand"
	"sync"
	"testing"

	"pap/internal/nfa"
)

// engineTrio builds one engine of each kind over n, sharing one Tables.
func engineTrio(n *nfa.NFA) (names []string, engines []Engine) {
	tab := NewTables(n)
	return []string{"sparse", "bit", "adaptive"},
		[]Engine{NewSparse(n), NewBit(n, tab), NewAdaptive(n, tab)}
}

// checkAgreement fails the test if any engine disagrees with the first on
// the full observable state: frontier set, length, fingerprint, liveness
// and cumulative transition count.
func checkAgreement(t *testing.T, ctx string, names []string, engines []Engine) {
	t.Helper()
	ref := engines[0]
	refSet := ref.FrontierSet()
	for i, e := range engines[1:] {
		if !refSet.Equal(e.FrontierSet()) {
			t.Fatalf("%s: %s frontier diverged from %s:\n%v\n%v",
				ctx, names[i+1], names[0], refSet, e.FrontierSet())
		}
		if e.FrontierLen() != ref.FrontierLen() {
			t.Fatalf("%s: %s FrontierLen = %d, %s = %d",
				ctx, names[i+1], e.FrontierLen(), names[0], ref.FrontierLen())
		}
		if e.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("%s: %s fingerprint diverged from %s", ctx, names[i+1], names[0])
		}
		if e.Dead() != ref.Dead() {
			t.Fatalf("%s: %s Dead = %v, %s = %v",
				ctx, names[i+1], e.Dead(), names[0], ref.Dead())
		}
		if e.Transitions() != ref.Transitions() {
			t.Fatalf("%s: %s transitions = %d, %s = %d",
				ctx, names[i+1], e.Transitions(), names[0], ref.Transitions())
		}
	}
}

// TestEngineEquivalence is the three-way differential property test: on
// random automata and inputs — with mid-run Resets and baseline toggles
// thrown in — Sparse, Bit and Adaptive must agree on every observable:
// frontiers, fingerprints, liveness, reports and transition counts.
func TestEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := randomNFA(rng, 2+rng.Intn(40))
		names, engines := engineTrio(n)
		reports := make([][]Report, len(engines))
		emits := make([]EmitFunc, len(engines))
		for i := range engines {
			i := i
			emits[i] = func(r Report) { reports[i] = append(reports[i], r) }
		}
		input := randomInput(rng, 120)
		baseline := true
		for i, sym := range input {
			// Occasionally reset all engines to a common random seed, or
			// flip baseline injection, mid-run.
			if rng.Intn(20) == 0 {
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
			checkAgreement(t, "", names, engines)
		}
		for i := 1; i < len(engines); i++ {
			if !SameReports(reports[0], reports[i]) {
				t.Fatalf("trial %d: %s reports diverged from %s:\n%+v\n%+v",
					trial, names[i], names[0], reports[i], reports[0])
			}
		}
	}
}

// FuzzEngineEquivalence drives the three engines over fuzzer-chosen inputs
// on a fuzzer-chosen random automaton and requires identical observables.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), []byte("abcdabcd"))
	f.Add(int64(42), []byte("aaaaaaaaaaaaaaaa"))
	f.Add(int64(9), []byte("dcbadcba\x00\xffzz"))
	f.Fuzz(func(t *testing.T, seed int64, input []byte) {
		if len(input) > 4096 {
			input = input[:4096]
		}
		rng := rand.New(rand.NewSource(seed))
		n := randomNFA(rng, 2+rng.Intn(64))
		names, engines := engineTrio(n)
		reports := make([][]Report, len(engines))
		for i, sym := range input {
			// Map arbitrary fuzz bytes onto the automaton's alphabet plus a
			// guaranteed-miss symbol, so runs stay active enough to matter.
			sym = "abcdz"[int(sym)%5]
			for j, e := range engines {
				j := j
				e.Step(sym, int64(i), func(r Report) { reports[j] = append(reports[j], r) })
			}
			checkAgreement(t, "", names, engines)
		}
		for i := 1; i < len(engines); i++ {
			if !SameReports(reports[0], reports[i]) {
				t.Fatalf("%s reports diverged from %s", names[i], names[0])
			}
		}
	})
}

// TestAdaptiveSwitchesRepresentations pins the adaptive policy down: a
// high-fanout automaton on an all-hit input must drive the engine dense,
// and a long miss streak must bring it back to sparse, with the frontier
// intact across both migrations.
func TestAdaptiveSwitchesRepresentations(t *testing.T) {
	const states = 256
	n := fanoutNFA(states)
	sp := NewSparse(n)
	ad := NewAdaptive(n, nil)
	step := func(sym byte, off int64) {
		sp.Step(sym, off, nil)
		ad.Step(sym, off, nil)
		if sp.Fingerprint() != ad.Fingerprint() {
			t.Fatalf("fingerprints diverged at offset %d", off)
		}
	}
	var off int64
	for i := 0; i < 4*adaptiveHoldSteps; i++ { // saturating hits
		step('a', off)
		off++
	}
	if !ad.Dense() {
		t.Fatalf("adaptive stayed sparse at frontier %d/%d states", ad.FrontierLen(), states)
	}
	for i := 0; i < 4*adaptiveHoldSteps; i++ { // miss streak drains the frontier
		step('z', off)
		off++
	}
	if ad.Dense() {
		t.Fatal("adaptive stayed dense on an empty frontier")
	}
	if ad.Stats().Switches < 2 {
		t.Fatalf("switches = %d, want >= 2", ad.Stats().Switches)
	}
	if sp.Transitions() != ad.Transitions() {
		t.Fatalf("transitions = %d, want %d", ad.Transitions(), sp.Transitions())
	}
}

// TestTablesConcurrentSharing exercises the lazy match-vector fills from
// many goroutines sharing one unbuilt Tables (run under -race in CI): every
// engine must end with the reference fingerprint.
func TestTablesConcurrentSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := randomNFA(rng, 200)
	input := randomInput(rng, 400)

	ref := NewBit(n, NewTables(n))
	for i, sym := range input {
		ref.Step(sym, int64(i), nil)
	}

	shared := NewTables(n) // deliberately not BuildAll: races hit the fills
	var wg sync.WaitGroup
	fps := make([]uint64, 16)
	for g := range fps {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var e Engine
			if g%2 == 0 {
				e = NewBit(n, shared)
			} else {
				e = NewAdaptive(n, shared)
			}
			for i, sym := range input {
				e.Step(sym, int64(i), nil)
			}
			fps[g] = e.Fingerprint()
		}(g)
	}
	wg.Wait()
	for g, fp := range fps {
		if fp != ref.Fingerprint() {
			t.Fatalf("goroutine %d fingerprint %#x, want %#x", g, fp, ref.Fingerprint())
		}
	}
}

// fanoutNFA builds a density-controllable automaton: an all-input seeder
// plus a ring of states labelled 'a', each with two successors, so a run of
// k consecutive 'a' symbols roughly doubles the frontier k times (dense),
// while any other symbol empties it (sparse). Input hit-rate, not
// structure, then sets the steady-state frontier density.
func fanoutNFA(states int) *nfa.NFA {
	b := nfa.NewBuilder("fanout")
	for i := 0; i < states; i++ {
		flags := nfa.Flags(0)
		if i == 0 {
			flags = nfa.AllInput
		}
		b.AddState(nfa.ClassOf('a'), flags)
	}
	for i := 0; i < states; i++ {
		b.AddEdge(nfa.StateID(i), nfa.StateID((i+1)%states))
		b.AddEdge(nfa.StateID(i), nfa.StateID((i+17)%states))
	}
	return b.MustBuild()
}

// hitRateInput returns size symbols where each is 'a' with probability
// rate and a guaranteed miss otherwise.
func hitRateInput(rng *rand.Rand, size int, rate float64) []byte {
	out := make([]byte, size)
	for i := range out {
		if rng.Float64() < rate {
			out[i] = 'a'
		} else {
			out[i] = 'z'
		}
	}
	return out
}

// BenchmarkEngineDensity sweeps the three backends across frontier-density
// regimes on the same fanout automaton: sparse (2% hit rate), mixed (50%)
// and dense (98% — the frontier saturates). This is the benchmark behind
// the adaptive engine's thresholds; see docs/ENGINES.md.
func BenchmarkEngineDensity(b *testing.B) {
	const states = 2048
	n := fanoutNFA(states)
	regimes := []struct {
		name string
		rate float64
	}{
		{"sparse", 0.02},
		{"mixed", 0.50},
		{"dense", 0.98},
	}
	kinds := []Kind{SparseKind, BitKind, Auto}
	for _, reg := range regimes {
		input := hitRateInput(rand.New(rand.NewSource(17)), 1<<14, reg.rate)
		b.Run(reg.name, func(b *testing.B) {
			for _, kind := range kinds {
				b.Run(kind.String(), func(b *testing.B) {
					tab := NewTables(n).BuildAll()
					e := New(kind, n, tab)
					b.SetBytes(int64(len(input)))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j, sym := range input {
							e.Step(sym, int64(j), nil)
						}
					}
				})
			}
		})
	}
}
