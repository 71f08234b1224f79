package main

import (
	"fmt"
	"slices"

	"pap"
	"pap/internal/engine"
	"pap/internal/nfa"
)

// Hit is one match as the correctness gate compares it: the rule code
// reported and the offset of the match-ending byte. Matches are compared
// as sets of hits, so two reporting states that share a code and an
// offset count once.
type Hit struct {
	Offset int64
	Code   int32
}

// Reference runs the sparse engine — the small readable reference the
// engine differential tests compare every backend against — over input
// and returns its hit set.
func Reference(n *nfa.NFA, input []byte) []Hit {
	res := engine.RunEngineOpts(n, input, engine.SparseKind, nil, engine.RunOpts{})
	hits := make([]Hit, len(res.Reports))
	for i, r := range res.Reports {
		hits[i] = Hit{Offset: r.Offset, Code: r.Code}
	}
	return canonical(hits)
}

// canonical sorts hits by (offset, code) and drops duplicates in place.
func canonical(hits []Hit) []Hit {
	slices.SortFunc(hits, func(a, b Hit) int {
		if a.Offset != b.Offset {
			if a.Offset < b.Offset {
				return -1
			}
			return 1
		}
		return int(a.Code) - int(b.Code)
	})
	return slices.Compact(hits)
}

// Gate compares operation results with their references. It reuses one
// scratch buffer, so checking adds no steady allocation to the measured
// loop.
type Gate struct {
	scratch    []Hit
	Checked    int
	Mismatches int
	First      string // description of the first mismatch
}

// CheckMatches compares a pap match list with the reference hit set.
func (g *Gate) CheckMatches(what string, got []pap.Match, ref []Hit) bool {
	g.scratch = g.scratch[:0]
	for _, m := range got {
		g.scratch = append(g.scratch, Hit{Offset: m.Offset, Code: m.Code})
	}
	return g.CheckHits(what, g.scratch, ref)
}

// CheckHits compares a hit list (any order, duplicates allowed; it is
// canonicalised in place) with the reference hit set.
func (g *Gate) CheckHits(what string, got []Hit, ref []Hit) bool {
	g.Checked++
	got = canonical(got)
	if slices.Equal(got, ref) {
		return true
	}
	g.Mismatches++
	if g.First == "" {
		g.First = fmt.Sprintf("%s: %d hits, reference has %d", what, len(got), len(ref))
		for i := 0; i < len(got) || i < len(ref); i++ {
			if i >= len(got) || i >= len(ref) || got[i] != ref[i] {
				g.First += fmt.Sprintf("; first difference at index %d", i)
				break
			}
		}
	}
	return false
}

// Fail records a failed check that has no hit list (for example a
// parallel run that did not verify itself).
func (g *Gate) Fail(what string) {
	g.Checked++
	g.Mismatches++
	if g.First == "" {
		g.First = what
	}
}
