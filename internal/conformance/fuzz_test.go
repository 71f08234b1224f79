package conformance

import (
	"math/rand"
	"testing"
)

// FuzzScoredEquivalence drives the scored-match invariant with
// fuzzer-chosen generator seeds and raw inputs: the seed deterministically
// generates an automaton (a third of seeds scored; forceScore weights the
// rest, so the scored paths are always exercised) and the fuzzed input runs
// through every scored execution path — all engine backends, chunked
// streaming, scored boundary resume, and the PAP parallelization under both
// schedulers — which must agree with the scored oracle score for score.
func FuzzScoredEquivalence(f *testing.F) {
	f.Add(int64(1), []byte("abcdabcdabcdabcd"), true)
	f.Add(int64(42), []byte("aaaaaaaazzzzbbbbccc"), false)
	f.Add(int64(-7), []byte("abababababababab"), true)
	f.Add(int64(1234), []byte("zzzzzzzzccccddddz"), false)
	f.Fuzz(func(t *testing.T, seed int64, input []byte, forceScore bool) {
		if len(input) == 0 || len(input) > 512 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		spec := RandomSpec(rng)
		if forceScore && !spec.scored() && len(spec.Edges) > 0 {
			spec.Weights = make([]int32, len(spec.Edges))
			for i := range spec.Weights {
				spec.Weights[i] = int32(rng.Intn(11) - 5)
			}
		}
		n, err := spec.Build()
		if err != nil {
			t.Fatalf("generated spec failed to build: %v (%s)", err, spec)
		}
		c := &Case{Seed: seed, Spec: spec, NFA: n, Input: input}
		if inv, d := checkScored(c, rand.New(rand.NewSource(seed^0x5c07ed))); inv != "" {
			t.Fatalf("invariant %s violated: %s\n  automaton: %s\n  input (%d bytes): %q",
				inv, d, spec, len(input), input)
		}
	})
}
