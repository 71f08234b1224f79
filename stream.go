package pap

import (
	"context"
	"errors"

	"pap/internal/engine"
	"pap/internal/prefilter"
)

// ErrStreamClosed is returned by Stream.WriteContext after Close.
var ErrStreamClosed = errors.New("pap: stream closed")

// Stream matches an automaton against input arriving incrementally —
// network captures, log tails, anything that cannot be buffered whole.
// Offsets are global across all written chunks. A Stream corresponds to
// one AP flow processing an unbounded symbol sequence; it uses the
// sequential engine (segment-parallel matching needs the whole input for
// range-guided partitioning).
//
//	s := a.NewStream()
//	for chunk := range chunks {
//	    for _, m := range s.Write(chunk) {
//	        handle(m)
//	    }
//	}
type Stream struct {
	a      *Automaton
	kind   EngineKind
	eng    engine.Engine
	pf     *prefilter.Prefilter // non-nil only under EngineMeta (see engine.PrefilterFor)
	offset int64
	// skipped counts bytes proven inert by the prefilter and never
	// stepped. Only the class scanner runs here — it is exact per byte,
	// so chunk boundaries (and literals straddling them) need no special
	// handling: the first byte of any viable trace is in the start class
	// and stops the skip.
	skipped int64
	// scratch accumulates the current chunk's matches and reports
	// accumulates its raw report events; both are reused across Write
	// calls, and emit is allocated once here, so steady-state writes
	// allocate nothing.
	scratch []Match
	reports []engine.Report
	emit    engine.EmitFunc
	closed  bool
	// scored: the engine tracks best-path scores (see WithScoring). The
	// score vector lives in the engine alongside the frontier, so scores
	// carry across Write calls exactly like enabled states do — a match
	// whose path straddles any number of chunk boundaries scores
	// identically to the same input matched in one piece.
	scored bool
	// best/bestValid track the maximum match score seen since creation or
	// Reset (valid flag, not a sentinel: scores may be negative).
	best      int64
	bestValid bool
}

// StreamOption configures NewStream.
type StreamOption func(*Stream)

// WithEngine selects the stream's execution backend (default EngineAuto).
func WithEngine(k EngineKind) StreamOption {
	return func(s *Stream) { s.kind = k }
}

// WithScoring forces per-transition score tracking even when the automaton
// carries no scored transitions (every score is then 0 — useful for
// ablation and conformance testing). Streams over scored automata
// (Builder.ConnectScored) always track, with or without this option.
// Scoring remaps EngineLazyDFA and EngineMeta to EngineAuto — those
// backends do not track scores — which also drops the prefilter that rides
// on EngineMeta.
func WithScoring() StreamOption {
	return func(s *Stream) { s.scored = true }
}

// NewStream returns a matcher positioned at input offset 0.
func (a *Automaton) NewStream(opts ...StreamOption) *Stream {
	s := &Stream{a: a, kind: EngineAuto}
	for _, opt := range opts {
		opt(s)
	}
	if a.n.Scored() {
		s.scored = true
	}
	s.eng, s.pf = s.newEngine()
	s.emit = func(r engine.Report) { s.reports = append(s.reports, r) }
	return s
}

func (s *Stream) newEngine() (engine.Engine, *prefilter.Prefilter) {
	return engine.EngineFor(s.a.n, s.kind.toKind(), s.a.tables(), engine.RunOpts{Scored: s.scored})
}

// collect dedupes the accumulated raw reports into scratch and folds them
// into the running best score.
func (s *Stream) collect() []Match {
	for _, r := range engine.DedupeReports(s.reports) {
		s.scratch = append(s.scratch, Match{Code: r.Code, Offset: r.Offset, Score: r.Score})
		if !s.bestValid || r.Score > s.best {
			s.best, s.bestValid = r.Score, true
		}
	}
	return s.scratch
}

// Write consumes the next chunk and returns the matches it completed, in
// order. The returned slice is reused by the next Write; copy it to
// retain. Matches are deduplicated per (offset, reporting state) within
// the chunk, like AP report events — and this is exactly the whole-input
// Match semantics, regardless of how the input is chunked: the sequential
// engine fires each enabled state at most once per symbol, so a given
// (offset, state) event is emitted by exactly one Step inside exactly one
// Write, and no deduplication opportunity can straddle a chunk boundary.
// (Two distinct reporting states carrying the same code still yield two
// matches at the same offset, in Match and Write alike.)
// Writing to a closed Stream is a no-op returning nil (use WriteContext
// for an explicit ErrStreamClosed).
func (s *Stream) Write(chunk []byte) []Match {
	ms, _ := s.WriteContext(context.Background(), chunk)
	return ms
}

// streamCtxEvery is the symbol interval between context polls in
// WriteContext — coarse enough to stay off the hot per-symbol path.
const streamCtxEvery = 4096

// WriteContext is Write under a context: the chunk is consumed in
// coarse-grained slices with ctx polled between them, and a cancelled or
// expired ctx stops mid-chunk with ctx's error wrapped in *AbortError
// (Progress reports the global stream offsets covered by this chunk and
// the position reached). Symbols before the stop are consumed — Offset
// advances — and their matches are returned alongside the error, so a
// caller that retries resumes exactly after the last processed symbol.
// Writing to a closed stream returns ErrStreamClosed.
func (s *Stream) WriteContext(ctx context.Context, chunk []byte) ([]Match, error) {
	if s.closed {
		return nil, ErrStreamClosed
	}
	start := s.offset
	s.scratch = s.scratch[:0]
	s.reports = s.reports[:0]
	var ctxErr error
	// ctx is polled every streamCtxEvery consumed symbols. Batches are
	// clamped to the next poll offset so the poll cadence is exact; a
	// prefilter skip may jump over a poll offset, which only delays the
	// next poll — skips are bounded by the chunk and cost no per-symbol
	// work anyway.
	nextPoll := 0
	for i := 0; i < len(chunk); {
		if i >= nextPoll {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				break
			}
			nextPoll = i + streamCtxEvery
		}
		if s.pf != nil && s.eng.Dead() {
			if j := s.pf.Next(chunk, i); j > i {
				s.offset += int64(j - i)
				s.skipped += int64(j - i)
				i = j
				continue
			}
		}
		// The engine consumes as much as one StepBatch call allows — the
		// vectorized kernel on a live frontier, the exact baseline-skip
		// scan on a dead one. Chunk boundaries need no special handling:
		// both are exact per byte.
		c, _, _ := s.eng.StepBatch(chunk[i:min(nextPoll, len(chunk))], s.offset, s.emit)
		s.offset += int64(c)
		i += c
	}
	s.collect()
	if ctxErr != nil {
		return s.scratch, &AbortError{
			Cause: ctxErr,
			Progress: []SegmentProgress{{
				Index: 0,
				Start: int(start),
				End:   int(start) + len(chunk),
				Pos:   int(s.offset),
			}},
		}
	}
	return s.scratch, nil
}

// Close releases the stream: subsequent Write calls return nil and
// WriteContext returns ErrStreamClosed. Close is idempotent and always
// returns nil (the error return mirrors io.Closer). Reset reopens a
// closed stream.
func (s *Stream) Close() error {
	s.closed = true
	return nil
}

// Offset returns the number of bytes consumed so far.
func (s *Stream) Offset() int64 { return s.offset }

// ActiveStates returns the number of currently enabled states beyond the
// always-active baseline — a load indicator for monitoring.
func (s *Stream) ActiveStates() int { return s.eng.FrontierLen() }

// Engine returns the stream's configured backend.
func (s *Stream) Engine() EngineKind { return s.kind }

// Scored reports whether the stream tracks per-transition scores
// (WithScoring, or an automaton with scored transitions).
func (s *Stream) Scored() bool { return s.scored }

// BestScore returns the maximum Match.Score seen since creation or the
// last Reset and whether any match has been seen at all — scores may be
// negative, so the boolean (not 0) is the no-matches signal. On unscored
// streams every score is 0, so it degenerates to a has-matched indicator.
func (s *Stream) BestScore() (int64, bool) { return s.best, s.bestValid }

// EngineInfo returns the stream's cumulative backend observability
// counters since creation or the last Reset.
func (s *Stream) EngineInfo() EngineInfo { return infoOf(s.skipped, s.eng.Stats()) }

// Reset rewinds the stream to offset 0 and the start configuration,
// reopening it if it was closed.
func (s *Stream) Reset() {
	s.eng, s.pf = s.newEngine()
	s.offset = 0
	s.skipped = 0
	s.scratch = s.scratch[:0]
	s.closed = false
	s.best, s.bestValid = 0, false
}
