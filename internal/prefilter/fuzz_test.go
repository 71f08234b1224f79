package prefilter_test

import (
	"math/rand"
	"testing"

	"pap/internal/conformance"
	"pap/internal/engine"
	"pap/internal/nfa"
	"pap/internal/prefilter"
)

// FuzzLiteralExtraction is the differential safety net for the whole
// prefilter: on a fuzzer-chosen random automaton and raw input it checks
// the structural extraction invariants, then requires that the
// literal-prefiltered meta match path reproduces the oracle's report
// stream exactly. Any unsound literal, wrong jump, or class-scanner gap
// shows up as a missing or phantom report.
func FuzzLiteralExtraction(f *testing.F) {
	f.Add(int64(1), []byte("GET /admin HTTP/1.1"))
	f.Add(int64(7), []byte("aaaabbbbccccdddd"))
	f.Add(int64(42), []byte("zzzzzzzzzzzzzzzzzzzzzzzzabcz"))
	f.Add(int64(9000), []byte("ab\x00\xffdcba ab dcba"))
	f.Fuzz(func(t *testing.T, seed int64, input []byte) {
		if len(input) > 4096 {
			input = input[:4096]
		}
		rng := rand.New(rand.NewSource(seed))
		spec := conformance.RandomSpec(rng)
		n, err := spec.Build()
		if err != nil {
			t.Skip("degenerate spec")
		}

		info := prefilter.Extract(n)
		// The start class is exactly the union of all all-input labels.
		var want nfa.Class
		for _, q := range n.AllInputStates() {
			want = want.Union(n.Label(q))
		}
		for s := 0; s < 256; s++ {
			if info.StartClass.Test(byte(s)) != want.Test(byte(s)) {
				t.Fatalf("StartClass disagrees on byte %#x (spec %v)", s, spec)
			}
		}
		// Extraction contract: literals only exist when no all-input state
		// reports, and each is at least two bytes.
		if len(info.Literals) > 0 {
			for _, q := range n.AllInputStates() {
				if n.State(q).Flags&nfa.Report != 0 {
					t.Fatalf("literals extracted despite reporting all-input state %d (spec %v)", q, spec)
				}
			}
			for _, l := range info.Literals {
				if len(l) < 2 {
					t.Fatalf("useless literal %q extracted (spec %v)", l, spec)
				}
			}
		}

		oracle := conformance.OracleRun(n, input)
		tab := engine.NewTables(n)
		res := engine.RunEngineOpts(n, input, engine.MetaKind, tab,
			engine.RunOpts{LiteralPrefilter: true})
		if !engine.SameReports(oracle, res.Reports) {
			t.Fatalf("prefiltered meta reports diverge from oracle\nspec: %v\ninput: %q\ngot %d reports, want %d",
				spec, input, len(res.Reports), len(oracle))
		}
	})
}
