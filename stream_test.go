package pap

import (
	"math/rand"
	"testing"
)

// TestStreamMatchesWholeInput: chunked streaming must produce exactly the
// matches of one-shot matching, for arbitrary chunkings.
func TestStreamMatchesWholeInput(t *testing.T) {
	a, err := Compile("s", []string{"abc", "bc+d", "x.z"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	input := makeInput(1<<14, 6, "abc", "bccd", "xyz")
	want := a.Match(input)

	for trial := 0; trial < 5; trial++ {
		s := a.NewStream()
		var got []Match
		pos := 0
		for pos < len(input) {
			n := 1 + rng.Intn(700)
			if pos+n > len(input) {
				n = len(input) - pos
			}
			got = append(got, s.Write(input[pos:pos+n])...)
			pos += n
		}
		if s.Offset() != int64(len(input)) {
			t.Fatalf("offset = %d, want %d", s.Offset(), len(input))
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d matches, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d match %d: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestStreamMatchesParallel: chunked streaming and parallel matching are
// independent paths to the same answer. The stream runs the sequential
// engine over arbitrary chunkings; MatchParallel enumerates flows over six
// segments and composes their true reports. Both must report the exact
// sequential match set.
func TestStreamMatchesParallel(t *testing.T) {
	a, err := Compile("s", []string{"abc", "bc+d", "x.z"})
	if err != nil {
		t.Fatal(err)
	}
	input := makeInput(1<<14, 41, "abc", "bccd", "xyz")

	cfg := DefaultConfig(2)
	cfg.MaxSegments = 6
	rep, err := a.MatchParallel(input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stats.Verified || rep.Stats.Segments < 2 {
		t.Fatalf("parallel match: verified=%v over %d segments, want verified over several",
			rep.Stats.Verified, rep.Stats.Segments)
	}
	want := rep.Matches

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		s := a.NewStream()
		var got []Match
		pos := 0
		for pos < len(input) {
			n := 1 + rng.Intn(700)
			if pos+n > len(input) {
				n = len(input) - pos
			}
			got = append(got, s.Write(input[pos:pos+n])...)
			pos += n
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: stream %d matches, parallel %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d match %d: stream %+v vs parallel %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestStreamMatchesAcrossChunkBoundary: a pattern split across Write calls
// must still match.
func TestStreamMatchesAcrossChunkBoundary(t *testing.T) {
	a, _ := Compile("s", []string{"needle"})
	s := a.NewStream()
	if got := s.Write([]byte("xxnee")); len(got) != 0 {
		t.Fatalf("premature matches: %+v", got)
	}
	got := s.Write([]byte("dlexx"))
	if len(got) != 1 || got[0].Offset != 7 {
		t.Fatalf("split match = %+v, want one ending at 7", got)
	}
}

func TestStreamReset(t *testing.T) {
	a, _ := Compile("s", []string{"ab"})
	s := a.NewStream()
	s.Write([]byte("a"))
	if s.ActiveStates() != 1 {
		t.Fatalf("active = %d after partial match", s.ActiveStates())
	}
	s.Reset()
	if s.Offset() != 0 || s.ActiveStates() != 0 {
		t.Fatalf("reset incomplete: offset=%d active=%d", s.Offset(), s.ActiveStates())
	}
	if got := s.Write([]byte("b")); len(got) != 0 {
		t.Fatalf("state leaked across Reset: %+v", got)
	}
	if got := s.Write([]byte("ab")); len(got) != 1 || got[0].Offset != 2 {
		t.Fatalf("post-reset offsets wrong: %+v", got)
	}
}

func TestStreamEmptyWrite(t *testing.T) {
	a, _ := Compile("s", []string{"ab"})
	s := a.NewStream()
	if got := s.Write(nil); len(got) != 0 {
		t.Fatalf("nil write matched: %+v", got)
	}
}

// TestStreamDedupeAcrossChunkBoundary pins down the deduplication contract
// under chunking. Report events are deduplicated per (offset, reporting
// state); two identical rules compile to two distinct reporting states, so
// every occurrence yields two same-code same-offset matches — from Match
// and from Stream alike. Because the sequential engine emits a given
// (offset, state) event exactly once, splitting the input at any boundary
// (including right after the reporting symbol) must never change the match
// multiset: nothing that would dedupe within one Write can arrive split
// across two.
func TestStreamDedupeAcrossChunkBoundary(t *testing.T) {
	a, err := CompileRules("dup", []Rule{
		{Pattern: "dup", Code: 7},
		{Pattern: "dup", Code: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("xdupdupydupz")
	want := a.Match(input)
	// Two reporting states per occurrence: expect duplicate (code, offset)
	// pairs in the baseline itself.
	if len(want) != 6 {
		t.Fatalf("whole-input matches = %d, want 6 (two per occurrence): %+v", len(want), want)
	}
	for i := 0; i+1 < len(want); i += 2 {
		if want[i] != want[i+1] {
			t.Fatalf("expected equal-code equal-offset pair at %d: %+v vs %+v", i, want[i], want[i+1])
		}
	}
	for split := 1; split < len(input); split++ {
		s := a.NewStream()
		var got []Match
		got = append(got, s.Write(input[:split])...)
		got = append(got, s.Write(input[split:])...)
		if len(got) != len(want) {
			t.Fatalf("split %d: %d matches, want %d: %+v", split, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("split %d match %d: %+v, want %+v", split, i, got[i], want[i])
			}
		}
	}
}

// TestStreamEngineEquivalence: every backend must produce identical
// matches over identical chunked input, and report its configured kind.
func TestStreamEngineEquivalence(t *testing.T) {
	a, err := Compile("s", []string{"abc", "bc+d", "x.z"})
	if err != nil {
		t.Fatal(err)
	}
	input := makeInput(1<<13, 29, "abc", "bccd", "xyz")
	want := a.Match(input)
	for _, k := range []EngineKind{EngineAuto, EngineSparse, EngineBit} {
		s := a.NewStream(WithEngine(k))
		if s.Engine() != k {
			t.Fatalf("Engine() = %v, want %v", s.Engine(), k)
		}
		var got []Match
		for pos := 0; pos < len(input); pos += 512 {
			end := pos + 512
			if end > len(input) {
				end = len(input)
			}
			got = append(got, s.Write(input[pos:end])...)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d matches, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v match %d: %+v, want %+v", k, i, got[i], want[i])
			}
		}
		if k != EngineAuto && s.EngineInfo().EngineSwitches != 0 {
			t.Fatalf("%v: fixed backend reported %d switches", k, s.EngineInfo().EngineSwitches)
		}
	}
}

// BenchmarkStreamWrite measures the steady-state cost of Write on each
// backend. The report and match buffers live on the Stream and are reused,
// so a warmed stream must not allocate per call, whatever the engine.
func BenchmarkStreamWrite(b *testing.B) {
	a, err := Compile("bench", []string{"attack", "GET /admin", `[0-9][0-9][0-9]-[0-9]`})
	if err != nil {
		b.Fatal(err)
	}
	input := makeInput(1<<12, 11, "attack", "GET /admin")
	for _, k := range []EngineKind{EngineAuto, EngineSparse, EngineBit} {
		b.Run(k.String(), func(b *testing.B) {
			s := a.NewStream(WithEngine(k))
			s.Write(input) // warm the buffers (and any lazy match tables)
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Write(input)
			}
		})
	}
}
