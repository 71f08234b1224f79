package pap

import (
	"math/rand"
	"strings"
	"testing"
)

// TestStreamPrefilterChunkStraddle feeds a literal-bearing pattern through
// a meta-engine stream in chunks that split the literal at every possible
// byte boundary. The class-skip prefilter operates per chunk on a dead
// frontier; straddling occurrences must still match because the skip only
// ever jumps to the next start-class byte, which for a straddled literal
// is the occurrence's own first byte.
func TestStreamPrefilterChunkStraddle(t *testing.T) {
	a, err := Compile("needle", []string{"needle"})
	if err != nil {
		t.Fatal(err)
	}
	quiet := strings.Repeat("lorem ipsum dolor sit amet ", 40) // no 'n'
	payload := []byte(quiet + "needle" + quiet + "needleneedle" + quiet)
	want := a.Match(payload)
	if len(want) != 3 {
		t.Fatalf("whole-input match found %d occurrences, want 3", len(want))
	}

	// Every split point inside the first occurrence, plus random chunkings.
	first := strings.Index(string(payload), "needle")
	for cut := first; cut <= first+6; cut++ {
		s := a.NewStream(WithEngine(EngineMeta))
		// Write's return value is only valid until the next Write, so copy
		// each batch into the accumulator before writing again.
		var got []Match
		got = append(got, s.Write(payload[:cut])...)
		got = append(got, s.Write(payload[cut:])...)
		if len(got) != len(want) {
			t.Fatalf("cut at %d (offset %d into literal): %d matches, want %d",
				cut, cut-first, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cut at %d: match %d = %+v, want %+v", cut, i, got[i], want[i])
			}
		}
		if s.EngineInfo().PrefilterSkippedBytes == 0 {
			t.Fatalf("cut at %d: prefilter skipped nothing on a quiet payload", cut)
		}
		s.Close()
	}

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		s := a.NewStream(WithEngine(EngineMeta))
		var got []Match
		for i := 0; i < len(payload); {
			j := i + 1 + rng.Intn(32)
			if j > len(payload) {
				j = len(payload)
			}
			got = append(got, s.Write(payload[i:j])...)
			i = j
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d matches, want %d", trial, len(got), len(want))
		}
		s.Close()
	}
}

// TestStreamPrefilterReset checks that Reset rearms the prefilter and
// zeroes the skip counter along with the rest of the stream state.
func TestStreamPrefilterReset(t *testing.T) {
	a, err := Compile("needle", []string{"needle"})
	if err != nil {
		t.Fatal(err)
	}
	s := a.NewStream(WithEngine(EngineMeta))
	defer s.Close()
	if m := s.Write([]byte("xxxxxxxxneedlexxxx")); len(m) != 1 {
		t.Fatalf("first pass: %d matches, want 1", len(m))
	}
	if s.EngineInfo().PrefilterSkippedBytes == 0 {
		t.Fatal("first pass skipped nothing")
	}
	s.Reset()
	if s.EngineInfo().PrefilterSkippedBytes != 0 {
		t.Fatalf("PrefilterSkipped = %d after Reset, want 0", s.EngineInfo().PrefilterSkippedBytes)
	}
	m := s.Write([]byte("xxxxxxxxneedlexxxx"))
	if len(m) != 1 {
		t.Fatalf("post-reset pass: %d matches, want 1", len(m))
	}
	if m[0].Offset != 13 {
		t.Fatalf("post-reset match offset = %d, want 13 (offsets restart)", m[0].Offset)
	}
	if s.EngineInfo().PrefilterSkippedBytes == 0 {
		t.Fatal("post-reset pass skipped nothing")
	}
}
