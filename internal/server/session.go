package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sort"
	"sync"
	"time"

	"pap"
)

// Session is one persistent streaming match: a pap.Stream bound to a
// registered automaton, fed by successive write requests with offsets
// global across all chunks — one modelled AP flow over an unbounded
// symbol sequence. Sessions survive deletion of their automaton from the
// registry and hot reloads that replace it (the compiled automaton is
// immutable, and the session stays pinned to the version it was opened
// against); they die on explicit close, server shutdown, or idle expiry.
type Session struct {
	ID        string
	Automaton string
	Version   int // registry version the session is pinned to
	Engine    pap.EngineKind
	Scored    bool // the stream tracks per-transition scores
	Created   time.Time

	mu       sync.Mutex
	stream   *pap.Stream
	lastUsed time.Time
	matches  int64
	writes   int64
	lastInfo pap.EngineInfo // stream engine counters at the previous Write, for deltas
	closed   bool
}

// delta computes the backend counter movement since the previous write —
// how many representation switches, skipped bytes and lazy-DFA cache
// events this one write caused, for metrics — and advances the high-water
// marks. CacheFellBack carries the current state. Callers hold s.mu.
func (s *Session) delta() pap.EngineInfo {
	info := s.stream.EngineInfo()
	d := pap.EngineInfo{
		PrefilterSkippedBytes: info.PrefilterSkippedBytes - s.lastInfo.PrefilterSkippedBytes,
		BaselineSkippedBytes:  info.BaselineSkippedBytes - s.lastInfo.BaselineSkippedBytes,
		EngineSwitches:        info.EngineSwitches - s.lastInfo.EngineSwitches,
		CacheHits:             info.CacheHits - s.lastInfo.CacheHits,
		CacheMisses:           info.CacheMisses - s.lastInfo.CacheMisses,
		CacheEvictions:        info.CacheEvictions - s.lastInfo.CacheEvictions,
		CacheFellBack:         info.CacheFellBack,
	}
	s.lastInfo = info
	return d
}

// ErrSessionNotFound is returned for unknown or expired session IDs.
var ErrSessionNotFound = errors.New("server: stream session not found")

// ErrTooManySessions is returned when the session limit is reached.
var ErrTooManySessions = errors.New("server: stream session limit reached")

// SessionInfo is a point-in-time snapshot of a session for JSON responses.
type SessionInfo struct {
	ID             string    `json:"id"`
	Automaton      string    `json:"automaton"`
	RulesetVersion int       `json:"ruleset_version"`
	Engine         string    `json:"engine"`
	Created        time.Time `json:"created"`
	LastUsed       time.Time `json:"last_used"`
	Offset         int64     `json:"offset"`
	Writes         int64     `json:"writes"`
	Matches        int64     `json:"matches"`
	ActiveStates   int       `json:"active_states"`
	EngineSwitches int64     `json:"engine_switches"`
	// Scored reports whether the session's stream tracks per-transition
	// scores (opened with scored=true, or over a scored automaton).
	Scored bool `json:"scored,omitempty"`
	// BestScore is the maximum match score the session has seen; present
	// only on scored sessions that have matched at least once (scores may
	// be negative, so omission — not 0 — is the no-matches signal).
	BestScore *int64 `json:"best_score,omitempty"`

	// The backend counters below are pointers so that omission means
	// exactly "this engine doesn't support the counter": a session on a
	// supporting engine always carries the field, including a legitimate
	// zero, where `omitempty` on a plain integer used to erase it.

	// PrefilterSkipped counts input bytes the stream's prefilter proved
	// inert and never stepped (EngineMeta only).
	PrefilterSkipped *int64 `json:"prefilter_skipped,omitempty"`
	// BaselineSkipped counts input bytes the backend's exact baseline-skip
	// fast path scanned past instead of stepping (every engine except the
	// pure sparse frontier list).
	BaselineSkipped *int64 `json:"baseline_skipped,omitempty"`
	// CacheHits/CacheMisses/CacheEvictions are lazy-DFA state-cache
	// counters (EngineLazyDFA and EngineMeta only).
	CacheHits      *int64 `json:"cache_hits,omitempty"`
	CacheMisses    *int64 `json:"cache_misses,omitempty"`
	CacheEvictions *int64 `json:"cache_evictions,omitempty"`
}

// supportsPrefilter reports whether the engine runs a literal/class
// prefilter (see docs/ENGINES.md).
func supportsPrefilter(k pap.EngineKind) bool { return k == pap.EngineMeta }

// supportsBaselineSkip reports whether the session reports baseline-skip
// bytes: every backend except the pure sparse frontier list. Bit and
// adaptive skip natively and meta through its adaptive fallback; the
// lazydfa backend's sparse fallback never skips, so its count stays 0.
func supportsBaselineSkip(k pap.EngineKind) bool { return k != pap.EngineSparse }

// supportsLazyCache reports whether the engine keeps a lazy-DFA state
// cache.
func supportsLazyCache(k pap.EngineKind) bool {
	return k == pap.EngineLazyDFA || k == pap.EngineMeta
}

// Write feeds one chunk to the session's stream and returns a copy of the
// completed matches, the stream offset after the write, and the backend
// counter deltas this write caused.
func (s *Session) Write(chunk []byte) ([]pap.Match, int64, pap.EngineInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, pap.EngineInfo{}, ErrSessionNotFound
	}
	ms := s.stream.Write(chunk)
	out := make([]pap.Match, len(ms))
	copy(out, ms) // the stream reuses its slice; callers get a stable copy
	s.matches += int64(len(ms))
	s.writes++
	d := s.delta()
	s.lastUsed = time.Now().UTC()
	return out, s.stream.Offset(), d, nil
}

// WriteContext is Write under a context: a cancelled or expired ctx stops
// the write mid-chunk at the stream's next cancellation point. Symbols
// consumed before the stop are committed — the session offset advances and
// their matches are returned alongside the error — so a caller that
// retries resumes exactly after the last processed symbol. The session
// mutex is held for the duration, so an expiry racing an in-flight write
// either waits for it or closes the session before it starts; a write
// never lands on a closed stream.
func (s *Session) WriteContext(ctx context.Context, chunk []byte) ([]pap.Match, int64, pap.EngineInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, pap.EngineInfo{}, ErrSessionNotFound
	}
	ms, err := s.stream.WriteContext(ctx, chunk)
	out := make([]pap.Match, len(ms))
	copy(out, ms) // the stream reuses its slice; callers get a stable copy
	s.matches += int64(len(ms))
	s.writes++
	d := s.delta()
	s.lastUsed = time.Now().UTC()
	return out, s.stream.Offset(), d, err
}

// BestScore returns the session's running maximum match score and whether
// any match has been seen since creation.
func (s *Session) BestScore() (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stream.BestScore()
}

// Info snapshots the session state.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := s.stream.EngineInfo()
	si := SessionInfo{
		ID:             s.ID,
		Automaton:      s.Automaton,
		RulesetVersion: s.Version,
		Engine:         s.Engine.String(),
		Created:        s.Created,
		LastUsed:       s.lastUsed,
		Offset:         s.stream.Offset(),
		Writes:         s.writes,
		Matches:        s.matches,
		ActiveStates:   s.stream.ActiveStates(),
		EngineSwitches: info.EngineSwitches,
		Scored:         s.Scored,
	}
	if s.Scored {
		if best, ok := s.stream.BestScore(); ok {
			si.BestScore = &best
		}
	}
	if supportsPrefilter(s.Engine) {
		v := info.PrefilterSkippedBytes
		si.PrefilterSkipped = &v
	}
	if supportsBaselineSkip(s.Engine) {
		v := info.BaselineSkippedBytes
		si.BaselineSkipped = &v
	}
	if supportsLazyCache(s.Engine) {
		h, m, e := info.CacheHits, info.CacheMisses, info.CacheEvictions
		si.CacheHits, si.CacheMisses, si.CacheEvictions = &h, &m, &e
	}
	return si
}

// SessionManager tracks live sessions and expires idle ones.
type SessionManager struct {
	mu       sync.Mutex
	sessions map[string]*Session
	reserved int // Create slots claimed but not yet installed
	max      int
	idle     time.Duration
	stop     chan struct{}
	stopOnce sync.Once
	expired  *Counter // optional, set by the server for metrics
}

// NewSessionManager returns a manager expiring sessions idle longer than
// idle (0 disables expiry), holding at most max sessions (<= 0 means
// 4096). Call Stop when done to release the reaper goroutine.
func NewSessionManager(max int, idle time.Duration) *SessionManager {
	if max <= 0 {
		max = 4096
	}
	m := &SessionManager{
		sessions: make(map[string]*Session),
		max:      max,
		idle:     idle,
		stop:     make(chan struct{}),
	}
	if idle > 0 {
		go m.reap()
	}
	return m
}

func (m *SessionManager) reap() {
	tick := time.NewTicker(m.idle / 4)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			m.reapOnce(time.Now().Add(-m.idle))
		}
	}
}

// reapOnce expires every session idle since before cutoff, in three
// phases so the manager lock is never held while a session lock is
// acquired: Session.WriteContext holds s.mu for the full duration of a
// write, so the old single-phase reap (s.mu acquired under m.mu) let one
// slow streaming write stall every Get/Create/List server-wide — the
// head-of-line block TestReapDoesNotBlockManager pins. Phase 1 snapshots
// the session pointers under m.mu; phase 2 closes idle ones under each
// s.mu only (re-checking liveness there, so a write that lands between
// the phases refreshes lastUsed and survives); phase 3 deletes the
// closed ones under m.mu, re-checking identity before each delete.
func (m *SessionManager) reapOnce(cutoff time.Time) {
	m.mu.Lock()
	candidates := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		candidates = append(candidates, s)
	}
	m.mu.Unlock()

	var expired []*Session
	for _, s := range candidates {
		s.mu.Lock()
		idleTooLong := !s.closed && s.lastUsed.Before(cutoff)
		if idleTooLong {
			s.closed = true
		}
		s.mu.Unlock()
		if idleTooLong {
			expired = append(expired, s)
		}
	}

	if len(expired) == 0 {
		return
	}
	m.mu.Lock()
	for _, s := range expired {
		if m.sessions[s.ID] == s {
			delete(m.sessions, s.ID)
			if m.expired != nil {
				m.expired.Inc()
			}
		}
	}
	m.mu.Unlock()
}

// streamBuildHook, when non-nil, observes every stream build Create pays
// for. Tests use it to prove a Create rejected at the session limit
// never builds a stream.
var streamBuildHook func()

// Create opens a session over the given registry entry, streaming on the
// given execution backend. The slot is reserved under the lock before
// the stream is built, so a Create doomed to ErrTooManySessions fails
// before paying the stream construction, and concurrent Creates racing
// for the last slots can never overshoot the limit.
func (m *SessionManager) Create(e *Entry, eng pap.EngineKind) (*Session, error) {
	return m.create(e, eng, false)
}

// CreateScored is Create with per-transition score tracking forced on the
// session's stream (pap.WithScoring); matches and session snapshots then
// carry scores. Sessions over scored automata track regardless.
func (m *SessionManager) CreateScored(e *Entry, eng pap.EngineKind) (*Session, error) {
	return m.create(e, eng, true)
}

func (m *SessionManager) create(e *Entry, eng pap.EngineKind, scored bool) (*Session, error) {
	id, err := newSessionID()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if len(m.sessions)+m.reserved >= m.max {
		m.mu.Unlock()
		return nil, ErrTooManySessions
	}
	m.reserved++
	m.mu.Unlock()

	// Both timestamps are kept in UTC so SessionInfo JSON exposes created
	// and last_used in the same zone.
	now := time.Now().UTC()
	if streamBuildHook != nil {
		streamBuildHook()
	}
	opts := []pap.StreamOption{pap.WithEngine(eng)}
	if scored {
		opts = append(opts, pap.WithScoring())
	}
	s := &Session{
		ID:        id,
		Automaton: e.Name,
		Version:   e.Version,
		Engine:    eng,
		Scored:    scored || e.Automaton.Scored(),
		Created:   now,
		stream:    e.Automaton.NewStream(opts...),
		lastUsed:  now,
	}
	m.mu.Lock()
	m.reserved--
	m.sessions[id] = s
	m.mu.Unlock()
	return s, nil
}

// Get returns the live session with the given ID.
func (m *SessionManager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, ErrSessionNotFound
	}
	return s, nil
}

// Close ends a session and removes it.
func (m *SessionManager) Close(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	if !ok {
		return ErrSessionNotFound
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// Len returns the number of live sessions.
func (m *SessionManager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// List returns snapshots of all live sessions, sorted by creation time.
func (m *SessionManager) List() []SessionInfo {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.mu.Unlock()
	out := make([]SessionInfo, len(ss))
	for i, s := range ss {
		out[i] = s.Info()
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SetExpiredCounter wires a counter incremented per idle-expired session.
func (m *SessionManager) SetExpiredCounter(c *Counter) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expired = c
}

// Stop halts the reaper. Live sessions are left to the GC.
func (m *SessionManager) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
}

func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}
