package core

import (
	"math/rand"
	"testing"

	"pap/internal/nfa"
)

func TestSubsetOf(t *testing.T) {
	cases := []struct {
		a, b []nfa.StateID
		want bool
	}{
		{nil, nil, true},
		{nil, []nfa.StateID{1}, true},
		{[]nfa.StateID{1}, nil, false},
		{[]nfa.StateID{1, 3}, []nfa.StateID{1, 2, 3}, true},
		{[]nfa.StateID{1, 4}, []nfa.StateID{1, 2, 3}, false},
		{[]nfa.StateID{2}, []nfa.StateID{1, 2, 3}, true},
		{[]nfa.StateID{0}, []nfa.StateID{1, 2}, false},
		{[]nfa.StateID{1, 2, 3}, []nfa.StateID{1, 2, 3}, true},
	}
	for i, c := range cases {
		if got := subsetOf(c.a, c.b); got != c.want {
			t.Errorf("case %d: subsetOf(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

// TestAbsorbDeactivationEquivalence: the strengthened deactivation check is
// an optimization, never a correctness change.
func TestAbsorbDeactivationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		n := randomNFA(rng, 5+rng.Intn(30))
		input := make([]byte, 2048+rng.Intn(2048))
		for i := range input {
			input[i] = "abcd"[rng.Intn(4)]
		}
		base := testConfig(1)
		base.TDMQuantum = 16
		base.MaxSegments = 4
		base.AbsorbDeactivation = false

		plain, err := Run(n, input, base)
		if err != nil {
			t.Fatal(err)
		}
		absorb := base
		absorb.AbsorbDeactivation = true
		strong, err := Run(n, input, absorb)
		if err != nil {
			t.Fatal(err)
		}
		if err := plain.CheckCorrect(); err != nil {
			t.Fatalf("trial %d plain: %v", trial, err)
		}
		if err := strong.CheckCorrect(); err != nil {
			t.Fatalf("trial %d absorb: %v", trial, err)
		}
		// The stronger check can only kill flows earlier.
		var dPlain, dStrong int
		for _, s := range plain.Segments {
			dPlain += s.Deactivations
		}
		for _, s := range strong.Segments {
			dStrong += s.Deactivations
		}
		if dStrong < dPlain {
			t.Fatalf("trial %d: absorb deactivated fewer flows (%d < %d)", trial, dStrong, dPlain)
		}
	}
}

// TestConvergenceAttribution forces convergence-heavy execution and checks
// exactness: with frequent checks, tiny quanta and no deactivation, merged
// flows' post-merge reports must still compose correctly through the
// survivor's inherited attribution.
func TestConvergenceAttribution(t *testing.T) {
	// Patterns over one component that converge: after 'X', both "Xa" and
	// "Xb" paths collapse to the same suffix automaton.
	n := mustCompile(t, "X[ab]cde", "cde")
	rng := rand.New(rand.NewSource(5))
	input := make([]byte, 8192)
	for i := range input {
		input[i] = "Xabcde"[rng.Intn(6)]
	}
	cfg := testConfig(1)
	cfg.TDMQuantum = 8
	cfg.ConvergenceEvery = 1
	cfg.DisableDeactivation = true
	cfg.DisableFIV = true
	res, err := Run(n, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckCorrect(); err != nil {
		t.Fatal(err)
	}
	conv := 0
	for _, s := range res.Segments {
		conv += s.Convergences
	}
	if conv == 0 {
		t.Log("no convergence events observed; scenario may be too weak")
	}
}

// TestFalseFlowsKilledByFIV: with convergence and deactivation disabled, FIV
// is the only flow killer; segments beyond the first must see kills once
// the truth chain catches up.
func TestFalseFlowsKilledByFIV(t *testing.T) {
	n := mustCompile(t, "Xab.*y", "Xcd.*y")
	rng := rand.New(rand.NewSource(9))
	input := make([]byte, 1<<15)
	for i := range input {
		input[i] = "Xabcdy  "[rng.Intn(8)]
	}
	cfg := testConfig(1)
	cfg.DisableConvergence = true
	cfg.DisableDeactivation = true
	// Force a cut symbol with a non-empty range so enumeration flows exist
	// (the planner would otherwise pick a zero-range symbol and leave FIV
	// nothing to do).
	cfg.CutSymbol = 'X'
	res, err := Run(n, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckCorrect(); err != nil {
		t.Fatal(err)
	}
	kills, applied := 0, 0
	for _, s := range res.Segments[1:] {
		kills += s.FIVKills
		if s.FIVApplied {
			applied++
		}
	}
	if applied == 0 {
		t.Fatal("FIV never applied despite being the only reduction mechanism")
	}
	if kills == 0 {
		t.Log("FIV applied but killed nothing (all flows true?); acceptable but unusual")
	}
}

// TestSVCBookkeeping: after a run, every dead flow's SVC entry is released
// and the per-segment SVC never reports overflow for default plans.
func TestSVCBookkeeping(t *testing.T) {
	n := mustCompile(t, "abc", "def", "gh.*i")
	rng := rand.New(rand.NewSource(13))
	input := genInput(rng, 1<<14, []string{"abc", "def", "ghi"})
	cfg := testConfig(1)
	res, err := Run(n, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckCorrect(); err != nil {
		t.Fatal(err)
	}
	if res.CapacityNote != "" {
		t.Fatalf("unexpected capacity note: %s", res.CapacityNote)
	}
}

// TestTransitionAccounting: the hardware-faithful transition total must be
// at least the golden run's (the baseline runs at least once).
func TestTransitionAccounting(t *testing.T) {
	n := mustCompile(t, "ab.*cd")
	rng := rand.New(rand.NewSource(15))
	input := genInput(rng, 1<<14, []string{"abxcd"})
	res, err := Run(n, input, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range res.Segments {
		total += s.Transitions
	}
	if total < res.Golden.Transitions {
		t.Fatalf("PAP transitions %d < golden %d", total, res.Golden.Transitions)
	}
	if res.TransitionRatio < 1 {
		t.Fatalf("TransitionRatio = %v", res.TransitionRatio)
	}
}
