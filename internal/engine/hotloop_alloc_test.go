package engine

import (
	"bytes"
	"testing"

	"pap/internal/nfa"
)

// TestStepBatchAllocs pins the vectorized batch kernel at zero allocations
// per pass: after one warm-up pass has published the lazy match vectors and
// the CSR successor arrays, batching an input through a live frontier must
// touch only preallocated engine state.
func TestStepBatchAllocs(t *testing.T) {
	n := fanoutNFA(256)
	tab := NewTables(n)
	e := NewBit(n, tab)
	// Hits keep the frontier live (every state matches 'a'); interleaved
	// misses force the frontier-death path inside the kernel too.
	input := bytes.Repeat([]byte("aaaaaaaz"), 64)
	emit := func(Report) {}
	run := func() {
		for i := 0; i < len(input); {
			c, _, _ := e.StepBatch(input[i:], int64(i), emit)
			i += c
		}
	}
	run() // warm-up: lazy tables, CSR arrays, skip scanner
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("StepBatch allocates %.1f objects per pass, want 0", allocs)
	}
}

// TestScoringOffAllocs pins the unscored hot path at zero allocations with
// the scoring machinery compiled in: even on a *scored* automaton (edge
// weights present), an engine that never enables score tracking must touch
// no score arrays and allocate nothing per pass.
func TestScoringOffAllocs(t *testing.T) {
	b := nfa.NewBuilder("scored-fanout")
	root := b.AddState(nfa.ClassOf('a'), nfa.AllInput)
	for i := 0; i < 256; i++ {
		id := b.AddReportState(nfa.ClassOf('a'), 0, int32(i))
		b.AddScoredEdge(root, id, int32(i%7-3))
	}
	n := b.MustBuild()
	if !n.Scored() {
		t.Fatal("automaton should be scored")
	}
	e := NewBit(n, NewTables(n))
	input := bytes.Repeat([]byte("aaaaaaaz"), 64)
	emit := func(Report) {}
	run := func() {
		for i := 0; i < len(input); {
			c, _, _ := e.StepBatch(input[i:], int64(i), emit)
			i += c
		}
	}
	run() // warm-up: lazy tables, CSR arrays, skip scanner
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("scoring-off StepBatch allocates %.1f objects per pass, want 0", allocs)
	}
}

// TestBaselineSkipScanAllocs pins the baseline-skip fast path at zero
// allocations: a dead frontier scanning past a long out-of-class run must
// not allocate, however many StepBatch calls the run is split into.
func TestBaselineSkipScanAllocs(t *testing.T) {
	n := fanoutNFA(64)
	tab := NewTables(n)
	e := NewBit(n, tab)
	e.Step('z', 0, nil) // kill the start frontier: 'z' is out of class
	if !e.Dead() {
		t.Fatal("frontier still live after a guaranteed miss")
	}
	input := bytes.Repeat([]byte("z"), 4096)
	run := func() {
		for i := 0; i < len(input); {
			c, _, _ := e.StepBatch(input[i:], int64(i), nil)
			i += c
		}
	}
	run()
	if skipped := e.Stats().BaselineSkipped; skipped == 0 {
		t.Fatal("skip fast path never engaged on an all-miss input")
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("baseline-skip scan allocates %.1f objects per pass, want 0", allocs)
	}
}
