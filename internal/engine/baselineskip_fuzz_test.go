package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// FuzzBaselineSkip stresses the vectorized batch kernel and the
// baseline-skip fast path against the scalar sparse reference on
// fuzzer-chosen automata, inputs, and window schedules. The fuzz bytes are
// mapped onto a mostly-missing alphabet so the frontier repeatedly decays
// onto the ASG-only baseline — the regime where the skip scanner engages —
// and windows of 1..130 symbols straddle the 64-symbol batch boundary both
// ways. Skip-enabled, skip-ablated, and adaptive engines must agree with
// the reference on every observable after every window, including across
// baseline on/off flips at window boundaries.
func FuzzBaselineSkip(f *testing.F) {
	// Committed corpus (testdata/fuzz/FuzzBaselineSkip) plus inline seeds:
	// skip-class boundary bytes around the 64-symbol batch edge,
	// chunk-straddling all-miss runs, and frontiers that die into the
	// baseline and revive.
	f.Add(int64(5), append(append(bytes.Repeat([]byte("z"), 63), 'a'), bytes.Repeat([]byte("z"), 65)...))
	f.Add(int64(11), bytes.Repeat([]byte("z"), 180))
	f.Add(int64(23), []byte("azzzzazzzzbzzzzczzzzdzzzzazzzza"))
	f.Add(int64(42), []byte("abcdabcdabcdabcd"))
	f.Fuzz(func(t *testing.T, seed int64, input []byte) {
		if len(input) > 4096 {
			input = input[:4096]
		}
		rng := rand.New(rand.NewSource(seed))
		n := randomNFA(rng, 2+rng.Intn(64))
		// Mostly misses, occasional hits: 'z' is never in a label, so long
		// fuzz runs exercise the skip scan; 'a'..'d' revive the frontier.
		mapped := make([]byte, len(input))
		for i, b := range input {
			mapped[i] = "aabcdzzzzzzzzzzz"[int(b)%16]
		}

		tab := NewTables(n)
		ref := NewSparse(n)
		names := []string{"sparse-ref", "bit-skip", "adaptive-skip", "bit-noskip"}
		bitSkip := NewBit(n, tab)
		adaSkip := NewAdaptive(n, tab)
		bitNoSkip := NewBit(n, tab)
		bitNoSkip.SetBaselineSkip(false)
		subs := []Engine{bitSkip, adaSkip, bitNoSkip}
		all := []Engine{ref, bitSkip, adaSkip, bitNoSkip}

		reports := make([][]Report, len(all))
		emits := make([]EmitFunc, len(all))
		for k := range all {
			k := k
			emits[k] = func(r Report) { reports[k] = append(reports[k], r) }
		}

		baseline := true
		for i := 0; i < len(mapped); {
			w := 1 + rng.Intn(130)
			if w > len(mapped)-i {
				w = len(mapped) - i
			}
			for j := 0; j < w; j++ {
				ref.Step(mapped[i+j], int64(i+j), emits[0])
			}
			for k, bs := range subs {
				for p, rem := i, w; rem > 0; {
					c, _, _ := bs.StepBatch(mapped[p:p+rem], int64(p), emits[k+1])
					if c < 1 || c > rem {
						t.Fatalf("%s: StepBatch at %d consumed %d of %d", names[k+1], p, c, rem)
					}
					p += c
					rem -= c
				}
			}
			i += w
			checkAgreement(t, fmt.Sprintf("after %d symbols", i), names, all)
			if rng.Intn(4) == 0 {
				baseline = !baseline
				for _, e := range all {
					e.SetBaseline(baseline)
				}
			}
		}
		for k := 1; k < len(all); k++ {
			if !SameReports(reports[0], reports[k]) {
				t.Fatalf("%s reports diverged from %s:\n%+v\n%+v",
					names[k], names[0], reports[k], reports[0])
			}
		}
		if got := bitNoSkip.Stats().BaselineSkipped; got != 0 {
			t.Fatalf("skip-ablated engine reports %d skipped bytes", got)
		}
	})
}
