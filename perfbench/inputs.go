package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"pap/internal/anml"
	"pap/internal/nfa"
	"pap/internal/prefilter"
	"pap/internal/regex"
	"pap/internal/workloads"
)

// Scale is the workloads scale every ruleset is built at.
const Scale = 0.05

// RulesetSeed generates every ruleset. Rulesets stay fixed across runs,
// the way a deployment's ruleset does, while --seed generates the
// traffic: ruleset-to-ruleset variation would otherwise swamp the
// run-to-run comparison. 7 is the seed the ROADMAP figures were taken at.
const RulesetSeed = 7

// Ruleset is one ANMLZoo-style ruleset as the benchmark hands it to the
// program: ANML bytes. NFA is the same bytes decoded through the internal
// decoder, for references and layer probes that need the automaton itself.
type Ruleset struct {
	Name string
	Spec *workloads.Spec
	ANML []byte
	NFA  *nfa.NFA
}

// BuildRuleset generates a workloads ruleset from seed and encodes it as
// ANML.
func BuildRuleset(name string, seed int64) (*Ruleset, error) {
	spec, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	n, err := spec.Build(Scale, seed)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", name, err)
	}
	var buf bytes.Buffer
	if err := anml.Encode(&buf, n); err != nil {
		return nil, fmt.Errorf("encode %s: %w", name, err)
	}
	dec, err := anml.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("decode %s: %w", name, err)
	}
	return &Ruleset{Name: name, Spec: spec, ANML: buf.Bytes(), NFA: dec}, nil
}

// DenseTrace is the ruleset's own Becchi pm=0.75 trace.
func (r *Ruleset) DenseTrace(size int, seed int64) []byte {
	return r.Spec.Trace(r.NFA, size, seed)
}

// inertAlphabet returns the text bytes (printable ASCII and newline) that
// cannot start a match of n: bytes outside prefilter.StartClass.
func inertAlphabet(n *nfa.NFA) []byte {
	start := prefilter.StartClass(n)
	var out []byte
	for c := 0; c < 256; c++ {
		if (c == '\n' || (c >= 0x20 && c <= 0x7e)) && !start.Test(byte(c)) {
			out = append(out, byte(c))
		}
	}
	return out
}

// QuietSessions are stream sessions of the given sizes: inert text —
// bytes outside the ruleset's start class — ending in a burst of 128–383
// bytes of the ruleset's own dense trace, so real matches occur. Ending
// each session with its burst keeps a match the burst starts from
// stepping the engine through the rest of the session: otherwise one
// early burst into an unbounded ".*" rule decides a whole session's cost.
func (r *Ruleset) QuietSessions(sizes []int, seed int64) ([][]byte, error) {
	inert := inertAlphabet(r.NFA)
	if len(inert) < 2 {
		return nil, fmt.Errorf("%s: start class covers all text bytes", r.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	// Bursts come from several independent traces, so one trace's quirks
	// do not set a whole seed's cost.
	var srcs [][]byte
	for t := int64(0); t < 8; t++ {
		srcs = append(srcs, r.DenseTrace(16<<10, seed+1+t))
	}
	out := make([][]byte, len(sizes))
	for k, size := range sizes {
		if size < 2<<10 {
			return nil, fmt.Errorf("%s: quiet session of %d bytes is too short", r.Name, size)
		}
		s := make([]byte, size)
		for i := range s {
			s[i] = inert[rng.Intn(len(inert))]
		}
		n := 128 + rng.Intn(256)
		src := srcs[k%len(srcs)]
		from := rng.Intn(len(src) - n)
		copy(s[size-n:], src[from:from+n])
		out[k] = s
	}
	return out, nil
}

// PapdRules is the papd-mixed ruleset: Snort-profile content rules —
// literals, literal/number/literal sequences and method-prefixed URIs —
// generated from the seed.
type PapdRules struct {
	Patterns []string
	NFA      *nfa.NFA
	inert    []byte
	plants   []func(*rand.Rand) string
}

const (
	papdRules   = 160
	ruleLetters = "abcdefghijklmnopqrstuvwxyz"
	ruleTail    = "abcdefghijklmnopqrstuvwxyz0123456789_/."
)

func word(rng *rand.Rand, lo, hi int) string {
	n := lo + rng.Intn(hi-lo+1)
	b := make([]byte, n)
	b[0] = ruleLetters[rng.Intn(len(ruleLetters))]
	for i := 1; i < n; i++ {
		b[i] = ruleTail[rng.Intn(len(ruleTail))]
	}
	return string(b)
}

func digits(rng *rand.Rand) string {
	b := make([]byte, 1+rng.Intn(4))
	for i := range b {
		b[i] = byte('0' + rng.Intn(10))
	}
	return string(b)
}

// quoteLiteral escapes the regex metacharacters a generated word may hold.
func quoteLiteral(s string) string {
	return strings.NewReplacer(".", `\.`).Replace(s)
}

// NewPapdRules generates the ruleset and compiles it with the same
// compiler papd uses, for references.
func NewPapdRules(seed int64) (*PapdRules, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &PapdRules{}
	for i := 0; i < papdRules; i++ {
		switch i % 4 {
		case 0, 1:
			w := word(rng, 6, 12)
			p.Patterns = append(p.Patterns, quoteLiteral(w))
			p.plants = append(p.plants, func(*rand.Rand) string { return w })
		case 2:
			a, b := word(rng, 4, 8), word(rng, 3, 6)
			p.Patterns = append(p.Patterns, quoteLiteral(a)+"=[0-9]+&"+quoteLiteral(b))
			p.plants = append(p.plants, func(r *rand.Rand) string { return a + "=" + digits(r) + "&" + b })
		default:
			u := word(rng, 5, 10)
			p.Patterns = append(p.Patterns, "(get|post) /"+quoteLiteral(u))
			p.plants = append(p.plants, func(r *rand.Rand) string {
				return []string{"get", "post"}[r.Intn(2)] + " /" + u
			})
		}
	}
	n, err := regex.CompilePatterns("snort", p.Patterns)
	if err != nil {
		return nil, fmt.Errorf("compile papd rules: %w", err)
	}
	p.NFA = n
	p.inert = inertAlphabet(n)
	if len(p.inert) < 2 {
		return nil, fmt.Errorf("papd rules: start class covers all text bytes")
	}
	return p, nil
}

// Payload returns about size bytes of inert text with hits rule instances
// planted at random positions.
func (p *PapdRules) Payload(rng *rand.Rand, size, hits int) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = p.inert[rng.Intn(len(p.inert))]
	}
	for h := 0; h < hits; h++ {
		s := p.plants[rng.Intn(len(p.plants))](rng)
		if len(s) >= size {
			continue
		}
		copy(out[rng.Intn(size-len(s)):], s)
	}
	return out
}
