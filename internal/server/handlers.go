package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pap"
)

// routes mounts every endpoint. The API is documented in docs/SERVER.md.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))

	s.mux.HandleFunc("POST /v1/automata", s.instrument("automata_register", s.handleRegister))
	s.mux.HandleFunc("GET /v1/automata", s.instrument("automata_list", s.handleListAutomata))
	s.mux.HandleFunc("GET /v1/automata/{name}", s.instrument("automata_get", s.handleGetAutomaton))
	s.mux.HandleFunc("DELETE /v1/automata/{name}", s.instrument("automata_delete", s.handleDeleteAutomaton))
	s.mux.HandleFunc("POST /v1/automata/{name}/match", s.instrument("match", s.handleMatch))

	s.mux.HandleFunc("POST /v1/streams", s.instrument("stream_open", s.handleOpenStream))
	s.mux.HandleFunc("GET /v1/streams", s.instrument("stream_list", s.handleListStreams))
	s.mux.HandleFunc("GET /v1/streams/{id}", s.instrument("stream_get", s.handleGetStream))
	s.mux.HandleFunc("POST /v1/streams/{id}/write", s.instrument("stream_write", s.handleStreamWrite))
	s.mux.HandleFunc("DELETE /v1/streams/{id}", s.instrument("stream_close", s.handleCloseStream))
}

// ---- JSON shapes ----

type errorResponse struct {
	Error string `json:"error"`
}

type registerRequest struct {
	Name     string   `json:"name"`
	Kind     string   `json:"kind,omitempty"` // "regex" (default), "hamming", "levenshtein"
	Patterns []string `json:"patterns"`
	Distance int      `json:"distance,omitempty"`
	Engine   string   `json:"engine,omitempty"` // "auto" (default), "sparse", "bit", "lazydfa", "meta"
}

type automatonJSON struct {
	Name     string    `json:"name"`
	Version  int       `json:"version"`
	Kind     string    `json:"kind"`
	Patterns int       `json:"patterns"`
	Distance int       `json:"distance,omitempty"`
	Engine   string    `json:"engine"`
	Created  time.Time `json:"created"`

	States      int `json:"states"`
	Transitions int `json:"transitions"`
	Components  int `json:"components"`
	Reporting   int `json:"reporting"`

	Requests int64 `json:"requests"`
	Matches  int64 `json:"matches"`
}

type matchJSON struct {
	Code   int32 `json:"code"`
	Offset int64 `json:"offset"`
	// Score is present exactly on scored runs (scored=true, or a scored
	// automaton), including legitimate zero scores; it is the match's best
	// path score under max-plus scoring.
	Score *int64 `json:"score,omitempty"`
}

type apStatsJSON struct {
	Segments          int     `json:"segments"`
	Speedup           float64 `json:"speedup"`
	IdealSpeedup      float64 `json:"ideal_speedup"`
	BaselineNS        float64 `json:"baseline_ns"`
	ParallelNS        float64 `json:"parallel_ns"`
	CutSymbol         byte    `json:"cut_symbol"`
	CutRange          int     `json:"cut_range"`
	AvgActiveFlows    float64 `json:"avg_active_flows"`
	SwitchOverheadPct float64 `json:"switch_overhead_pct"`
	FalseReportRatio  float64 `json:"false_report_ratio"`
	EngineSwitches    int64   `json:"engine_switches"`
	PrefilterSkipped  int64   `json:"prefilter_skipped"`
	BaselineSkipped   int64   `json:"baseline_skipped"`
	FPCollisions      int64   `json:"fingerprint_collisions,omitempty"`
	Scored            bool    `json:"scored,omitempty"`
	ScoredReports     int     `json:"scored_reports,omitempty"`
	Verified          bool    `json:"verified"`
}

type matchResponse struct {
	Automaton  string      `json:"automaton"`
	Mode       string      `json:"mode"`
	Engine     string      `json:"engine"`
	InputBytes int         `json:"input_bytes"`
	Matches    []matchJSON `json:"matches"`
	// Scored reports that score tracking was on; BestScore is then the
	// maximum match score, present only when at least one match exists
	// (scores may be negative, so omission — not 0 — means no matches).
	Scored    bool         `json:"scored,omitempty"`
	BestScore *int64       `json:"best_score,omitempty"`
	ElapsedMS float64      `json:"elapsed_ms"`
	AP        *apStatsJSON `json:"ap,omitempty"` // parallel mode only
}

type openStreamRequest struct {
	Automaton string `json:"automaton"`
	Engine    string `json:"engine,omitempty"` // overrides the ruleset default
	Scored    bool   `json:"scored,omitempty"` // track per-transition scores
}

type streamWriteResponse struct {
	Matches []matchJSON `json:"matches"`
	Offset  int64       `json:"offset"`
	// BestScore is the session-wide maximum match score, present only on
	// scored sessions that have matched at least once.
	BestScore *int64 `json:"best_score,omitempty"`
}

// abortResponse is the 503 body for a match or stream write that was
// cancelled mid-execution: the error, the metrics reason label, and
// whatever partial progress the execution pipeline reported. Stream writes
// additionally carry the matches completed and the offset reached before
// the stop, so callers can resume from exactly there.
type abortResponse struct {
	Error    string                `json:"error"`
	Reason   string                `json:"reason"`
	Progress []pap.SegmentProgress `json:"progress,omitempty"`
	Matches  []matchJSON           `json:"matches,omitempty"`
	Offset   int64                 `json:"offset,omitempty"`
}

// ---- plumbing ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// readBody reads the request body up to the configured limit, translating
// overflow into 413.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				"payload exceeds %d bytes", tooBig.Limit)
		} else {
			writeErr(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return nil, false
	}
	return body, true
}

// tenantOf labels the request's tenant for quotas and metrics: the
// X-API-Key header, or "anonymous".
func tenantOf(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return "anonymous"
}

// checkQuota spends one token from the request tenant's bucket. On an
// empty bucket it writes the 429 with Retry-After and reports false.
// Quotas guard the worker pool, so they run where the work runs: a
// request forwarded to its owning replica is charged there, not here.
func (s *Server) checkQuota(w http.ResponseWriter, r *http.Request) bool {
	if s.quotas == nil {
		return true
	}
	tenant := tenantOf(r)
	ok, wait := s.quotas.Allow(tenant)
	if ok {
		return true
	}
	sec := retryAfterSeconds(wait)
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	s.metrics.Counter("papd_quota_rejected_total",
		"Requests rejected by per-tenant quotas, by tenant.",
		fmt.Sprintf("tenant=%q", EscapeLabelValue(tenant))).Inc()
	writeErr(w, http.StatusTooManyRequests,
		"tenant over quota, retry in %ds", sec)
	return false
}

// dispatch runs fn on the worker pool under the match timeout, translating
// pool backpressure into 429 and timeouts into 503. Returns true when fn
// ran to completion and the caller should write its success response.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, fn func()) bool {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MatchTimeout)
	defer cancel()
	switch err := s.pool.Do(ctx, fn); {
	case err == nil:
		return true
	case errors.Is(err, ErrQueueFull):
		s.poolRejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "matching queue full, retry later")
	case errors.Is(err, ErrPoolClosed):
		writeErr(w, http.StatusServiceUnavailable, "server draining")
	case errors.Is(err, context.DeadlineExceeded):
		s.countCancellation("deadline")
		writeErr(w, http.StatusServiceUnavailable,
			"match timed out after %s", s.cfg.MatchTimeout)
	default: // client went away (context canceled) or similar
		s.countCancellation("client_gone")
		writeErr(w, http.StatusServiceUnavailable, "request aborted: %v", err)
	}
	return false
}

// execContext derives the execution deadline for one match or stream
// write: r.Context() bounded by the tightest of MatchTimeout, the
// server-wide MaxMatchDuration cap, and the request's own timeout_ms
// parameter. The returned context is what the matching pipeline polls, so
// whichever bound fires first stops the run at its next cancellation
// point. An invalid timeout_ms yields an error for a 400.
func (s *Server) execContext(r *http.Request, q map[string][]string) (context.Context, context.CancelFunc, error) {
	d := s.cfg.MatchTimeout
	if s.cfg.MaxMatchDuration > 0 && s.cfg.MaxMatchDuration < d {
		d = s.cfg.MaxMatchDuration
	}
	if vs := q["timeout_ms"]; len(vs) > 0 && vs[0] != "" {
		ms, err := strconv.Atoi(vs[0])
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("timeout_ms must be a positive integer, got %q", vs[0])
		}
		if t := time.Duration(ms) * time.Millisecond; t < d {
			d = t
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// abortReason classifies a cancelled execution for the
// papd_match_cancellations_total reason label.
func abortReason(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline"
	}
	return "client_gone"
}

// writeAbort translates a cancelled execution into 503 with partial
// progress and counts it. extra, when non-nil, decorates the response
// (stream writes attach the matches and offset reached before the stop).
func (s *Server) writeAbort(w http.ResponseWriter, err error, extra func(*abortResponse)) {
	reason := abortReason(err)
	s.countCancellation(reason)
	resp := abortResponse{Error: err.Error(), Reason: reason}
	var ab *pap.AbortError
	if errors.As(err, &ab) {
		resp.Progress = ab.Progress
	}
	if extra != nil {
		extra(&resp)
	}
	writeJSON(w, http.StatusServiceUnavailable, resp)
}

// isAbort reports whether err is a cancellation (as opposed to, say, a bad
// parallel configuration): an *pap.AbortError or a bare context error.
func isAbort(err error) bool {
	var ab *pap.AbortError
	return errors.As(err, &ab) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// toMatchJSON converts matches for the wire; scored runs attach each
// match's score (a pointer so legitimate zeros survive omitempty).
func toMatchJSON(ms []pap.Match, scored bool) []matchJSON {
	out := make([]matchJSON, len(ms))
	for i, m := range ms {
		out[i] = matchJSON{Code: m.Code, Offset: m.Offset}
		if scored {
			sc := m.Score
			out[i].Score = &sc
		}
	}
	return out
}

func (s *Server) automatonJSON(e *Entry) automatonJSON {
	st := e.Automaton.Stats()
	return automatonJSON{
		Name:        e.Name,
		Version:     e.Version,
		Kind:        e.Kind,
		Patterns:    e.Patterns,
		Distance:    e.Distance,
		Engine:      e.Engine.String(),
		Created:     e.Created,
		States:      st.States,
		Transitions: st.Transitions,
		Components:  st.ConnectedComponents,
		Reporting:   st.ReportingStates,
		Requests:    e.Requests.Load(),
		Matches:     e.Matches.Load(),
	}
}

func (s *Server) countEngineSteps(k pap.EngineKind, symbols int) {
	if int(k) < len(s.engineSteps) {
		s.engineSteps[k].Add(int64(symbols))
	}
}

// countEngineInfo feeds one match's (or stream write's delta of) backend
// observability counters into the switch, skip and lazy-DFA cache metrics.
func (s *Server) countEngineInfo(info pap.EngineInfo) {
	s.engineSwitches.Add(info.EngineSwitches)
	s.prefilterSkipped.Add(info.PrefilterSkippedBytes)
	s.baselineSkipped.Add(info.BaselineSkippedBytes)
	s.lazyCacheHits.Add(info.CacheHits)
	s.lazyCacheMisses.Add(info.CacheMisses)
	s.lazyCacheEvicts.Add(info.CacheEvictions)
}

// engineNames is the valid-kinds list quoted in engine parse errors.
func engineNames() string {
	return `"` + strings.Join(pap.EngineKindNames(), `", "`) + `"`
}

func (s *Server) countMatches(e *Entry, n int) {
	e.Requests.Add(1)
	e.Matches.Add(int64(n))
	s.metrics.Counter("papd_automaton_matches_total",
		"Matches reported, by automaton.",
		fmt.Sprintf("automaton=%q", EscapeLabelValue(e.Name))).Add(int64(n))
}

// ---- probes and metrics ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}

// ---- automata ----

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req registerRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	e, err := s.reg.Register(req.Name, req.Kind, req.Patterns, req.Distance, req.Engine)
	switch {
	case err == nil:
		// A fresh name is a 201; re-registering an existing name is a
		// zero-downtime hot reload to version v+1 and answers 200.
		code := http.StatusCreated
		if e.Version > 1 {
			code = http.StatusOK
		}
		writeJSON(w, code, s.automatonJSON(e))
	case errors.Is(err, ErrExists):
		writeErr(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrTooMany):
		writeErr(w, http.StatusInsufficientStorage, "%v", err)
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleListAutomata(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.List()
	out := make([]automatonJSON, len(entries))
	for i, e := range entries {
		out[i] = s.automatonJSON(e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"automata": out})
}

func (s *Server) handleGetAutomaton(w http.ResponseWriter, r *http.Request) {
	e, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.automatonJSON(e))
}

func (s *Server) handleDeleteAutomaton(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Delete(r.PathValue("name")); err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---- matching ----

// parseParallelConfig builds a pap.Config from match query parameters.
func parseParallelConfig(q map[string][]string, serialDefault bool) (pap.Config, error) {
	get := func(k string) string {
		if vs := q[k]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	cfg := pap.DefaultConfig(1)
	cfg.SerialSegments = serialDefault
	if v := get("ranks"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 4 {
			return cfg, fmt.Errorf("ranks must be 1..4, got %q", v)
		}
		cfg.Ranks = n
	}
	if v := get("segments"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return cfg, fmt.Errorf("segments must be >= 1, got %q", v)
		}
		cfg.MaxSegments = n
	}
	if v := get("speculate"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return cfg, fmt.Errorf("speculate must be a bool, got %q", v)
		}
		cfg.Speculate = b
	}
	if v := get("serial_segments"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return cfg, fmt.Errorf("serial_segments must be a bool, got %q", v)
		}
		cfg.SerialSegments = b
	}
	return cfg, nil
}

// resolveEngine picks the execution backend for a request: the "engine"
// query parameter when present, the ruleset's registered default otherwise.
func resolveEngine(q map[string][]string, e *Entry) (pap.EngineKind, error) {
	if vs := q["engine"]; len(vs) > 0 && vs[0] != "" {
		k, err := pap.ParseEngineKind(vs[0])
		if err != nil {
			return pap.EngineAuto, fmt.Errorf("engine must be one of %s, got %q", engineNames(), vs[0])
		}
		return k, nil
	}
	return e.Engine, nil
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	payload, ok := s.readBody(w, r)
	if !ok {
		return
	}
	// Shard routing: a ruleset owned by a healthy peer is matched there
	// (concentrating its caches on one replica); if the forward fails in
	// transport we fall back to serving locally.
	if addr, route := s.router.routeTo(r, name); route {
		if s.router.Forward(w, r, addr, payload) {
			return
		}
	}
	e, err := s.reg.Get(name)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	// Every query parameter is validated before the tenant quota is
	// charged, so a request answered 400 never spends a token.
	q := r.URL.Query()
	mode := q.Get("mode")
	var cfg pap.Config
	switch mode {
	case "", "seq", "sequential":
		mode = "sequential"
	case "parallel":
		if cfg, err = parseParallelConfig(q, s.cfg.SerialSegments); err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
	default:
		writeErr(w, http.StatusBadRequest,
			`mode must be "sequential" (default) or "parallel", got %q`, mode)
		return
	}
	eng, err := resolveEngine(q, e)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// scored=true tracks per-transition scores; scored automata always do.
	scored := e.Automaton.Scored()
	if v := q.Get("scored"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "scored must be a bool, got %q", v)
			return
		}
		scored = scored || b
	}
	execCtx, cancelExec, err := s.execContext(r, q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancelExec()
	if !s.checkQuota(w, r) {
		return
	}

	var (
		resp     matchResponse
		matchErr error
	)
	start := time.Now()
	if mode == "sequential" {
		var (
			ms   []pap.Match
			info pap.EngineInfo
		)
		if !s.dispatch(w, r, func() {
			ms, info, matchErr = e.Automaton.MatchWithInfoContext(execCtx, payload, eng)
		}) {
			return
		}
		s.countEngineInfo(info)
		if matchErr != nil {
			s.writeAbort(w, matchErr, nil)
			return
		}
		resp.Matches = toMatchJSON(ms, scored)
		s.countEngineSteps(eng, len(payload))
	} else {
		cfg.Engine = eng
		cfg.Scoring = scored
		var rep *pap.Report
		if !s.dispatch(w, r, func() {
			rep, matchErr = e.Automaton.MatchParallelContext(execCtx, payload, cfg)
		}) {
			return
		}
		if matchErr != nil {
			if isAbort(matchErr) {
				s.writeAbort(w, matchErr, nil)
				return
			}
			writeErr(w, http.StatusUnprocessableEntity, "parallel match: %v", matchErr)
			return
		}
		resp.Matches = toMatchJSON(rep.Matches, rep.Stats.Scored)
		st := rep.Stats
		resp.AP = &apStatsJSON{
			Segments:          st.Segments,
			Speedup:           st.Speedup,
			IdealSpeedup:      st.IdealSpeedup,
			BaselineNS:        st.BaselineNS,
			ParallelNS:        st.ParallelNS,
			CutSymbol:         st.CutSymbol,
			CutRange:          st.CutRange,
			AvgActiveFlows:    st.AvgActiveFlows,
			SwitchOverheadPct: st.SwitchOverheadPct,
			FalseReportRatio:  st.FalseReportRatio,
			EngineSwitches:    st.EngineSwitches,
			PrefilterSkipped:  st.PrefilterSkippedBytes,
			BaselineSkipped:   st.BaselineSkippedBytes,
			FPCollisions:      st.FingerprintCollisions,
			Scored:            st.Scored,
			ScoredReports:     st.ScoredReports,
			Verified:          st.Verified,
		}
		s.speedupHist.Observe(st.Speedup)
		s.countEngineSteps(eng, len(payload))
		s.engineSwitches.Add(st.EngineSwitches)
		s.prefilterSkipped.Add(st.PrefilterSkippedBytes)
		s.baselineSkipped.Add(st.BaselineSkippedBytes)
	}

	resp.Automaton = e.Name
	resp.Mode = mode
	resp.Engine = eng.String()
	resp.InputBytes = len(payload)
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	if scored {
		resp.Scored = true
		for _, m := range resp.Matches {
			if m.Score != nil && (resp.BestScore == nil || *m.Score > *resp.BestScore) {
				resp.BestScore = m.Score
			}
		}
		s.scoredMatches.Add(int64(len(resp.Matches)))
	}
	s.countMatches(e, len(resp.Matches))
	if resp.Matches == nil {
		resp.Matches = []matchJSON{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- streaming sessions ----

func (s *Server) handleOpenStream(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req openStreamRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	// A stream for a peer-owned ruleset opens on the owner; remember
	// where the session lives so writes through this replica follow it.
	if addr, route := s.router.routeTo(r, req.Automaton); route {
		if code, respBody, done := s.router.ForwardCapture(w, r, addr, body); done {
			if code == http.StatusCreated {
				var si SessionInfo
				if json.Unmarshal(respBody, &si) == nil && si.ID != "" {
					s.router.RememberSession(si.ID, addr)
				}
			}
			return
		}
	}
	e, err := s.reg.Get(req.Automaton)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	eng := e.Engine
	if req.Engine != "" {
		if eng, err = pap.ParseEngineKind(req.Engine); err != nil {
			writeErr(w, http.StatusBadRequest,
				"engine must be one of %s, got %q", engineNames(), req.Engine)
			return
		}
	}
	var sess *Session
	if req.Scored {
		sess, err = s.sessions.CreateScored(e, eng)
	} else {
		sess, err = s.sessions.Create(e, eng)
	}
	if err != nil {
		if errors.Is(err, ErrTooManySessions) {
			writeErr(w, http.StatusTooManyRequests, "%v", err)
		} else {
			writeErr(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, sess.Info())
}

func (s *Server) handleListStreams(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"streams": s.sessions.List()})
}

// forwardSession relays a request for a session that lives on a peer
// (learned when its open was forwarded there). A 404 from the owner, or
// final being true (the close path), drops the routing entry. Reports
// whether the response was written; a transport failure falls through to
// local handling.
func (s *Server) forwardSession(w http.ResponseWriter, r *http.Request, id string, body []byte, final bool) bool {
	if r.Header.Get(forwardHeader) != "" {
		return false
	}
	addr, owned := s.router.SessionOwner(id)
	if !owned {
		return false
	}
	code, _, done := s.router.ForwardCapture(w, r, addr, body)
	if !done {
		return false
	}
	if final || code == http.StatusNotFound {
		s.router.ForgetSession(id)
	}
	return true
}

func (s *Server) handleGetStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.forwardSession(w, r, id, nil, false) {
		return
	}
	sess, err := s.sessions.Get(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

func (s *Server) handleStreamWrite(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	chunk, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if s.forwardSession(w, r, id, chunk, false) {
		return
	}
	sess, err := s.sessions.Get(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	if !s.checkQuota(w, r) {
		return
	}
	execCtx, cancelExec, err := s.execContext(r, r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancelExec()
	var (
		ms        []pap.Match
		offset    int64
		ws        pap.EngineInfo
		writeErr2 error
	)
	if !s.dispatch(w, r, func() {
		ms, offset, ws, writeErr2 = sess.WriteContext(execCtx, chunk)
	}) {
		return
	}
	if writeErr2 != nil {
		if isAbort(writeErr2) {
			// The symbols before the stop were consumed: account for them
			// and hand back their matches with the resume offset.
			if e, err := s.reg.Get(sess.Automaton); err == nil {
				s.countMatches(e, len(ms))
			}
			s.countEngineInfo(ws)
			s.writeAbort(w, writeErr2, func(resp *abortResponse) {
				resp.Matches = toMatchJSON(ms, sess.Scored)
				resp.Offset = offset
			})
			return
		}
		writeErr(w, http.StatusNotFound, "%v", writeErr2)
		return
	}
	if e, err := s.reg.Get(sess.Automaton); err == nil {
		s.countMatches(e, len(ms))
	}
	s.streamBytes.Add(int64(len(chunk)))
	s.countEngineSteps(sess.Engine, len(chunk))
	s.countEngineInfo(ws)
	resp := streamWriteResponse{Matches: toMatchJSON(ms, sess.Scored), Offset: offset}
	if sess.Scored {
		if best, ok := sess.BestScore(); ok {
			resp.BestScore = &best
		}
		s.scoredMatches.Add(int64(len(ms)))
	}
	if resp.Matches == nil {
		resp.Matches = []matchJSON{}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCloseStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.forwardSession(w, r, id, nil, true) {
		return
	}
	if err := s.sessions.Close(id); err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
