package core

import (
	"testing"

	"pap/internal/regex"
)

// FuzzParallelEquivalence drives the full PAP pipeline with arbitrary
// inputs and knob settings against a fixed ruleset and requires exact
// composition every time.
func FuzzParallelEquivalence(f *testing.F) {
	f.Add([]byte("abcXdefXabcXdefXabcXdefXabcXdef"), uint8(4), uint8(16), false)
	f.Add([]byte("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"), uint8(8), uint8(8), true)
	f.Add([]byte("ab.*cdab.*cdab.*cd"), uint8(2), uint8(32), false)
	f.Fuzz(func(t *testing.T, input []byte, segs, quantum uint8, ablate bool) {
		if len(input) < 8 || len(input) > 4096 {
			return
		}
		n, err := regex.CompilePatterns("fuzz", []string{"abc", "de.?f", "x{3,5}y?z"})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(1)
		cfg.Workers = 2
		cfg.MaxSegments = 1 + int(segs%16)
		cfg.TDMQuantum = 1 + int(quantum%64)
		cfg.ConvergenceEvery = 1 + int(segs%5)
		if ablate {
			cfg.DisableDeactivation = true
			cfg.DisableFIV = true
		}
		res, err := Run(n, input, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckCorrect(); err != nil {
			t.Fatalf("input %q cfg %+v: %v", input, cfg, err)
		}
	})
}
