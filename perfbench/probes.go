package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"pap"
	"pap/internal/anml"
	"pap/internal/core"
	"pap/internal/engine"
	"pap/internal/nfa"
	"pap/internal/prefilter"
	"pap/internal/regex"
	"pap/internal/server"
)

// probeReps is how often the set-up layer probes repeat; they report
// medians.
const probeReps = 3

// probeCase is one (ruleset, input) pair the layer probes run on. Own
// cases are the workload's inputs and feed the aggregate figures; other
// cases only fill engine.auto.mbps.<ruleset> for rulesets the workload
// does not use.
type probeCase struct {
	ruleset string
	nfa     *nfa.NFA
	anml    []byte
	input   []byte
	ref     []Hit
	own     bool
}

func medianOf(reps int, fn func()) float64 {
	ds := make([]time.Duration, reps)
	for r := range ds {
		t0 := time.Now()
		fn()
		ds[r] = time.Since(t0)
	}
	return MedianDuration(ds)
}

// distinct returns the cases' automata, once each, in case order.
func distinct(cases []probeCase) []probeCase {
	seen := map[*nfa.NFA]bool{}
	var out []probeCase
	for _, c := range cases {
		if !seen[c.nfa] {
			seen[c.nfa] = true
			out = append(out, c)
		}
	}
	return out
}

// engineView is an automaton as a pap.Automaton holds it: freshly
// decoded from its ANML, with lazily filled tables.
type engineView struct {
	n   *nfa.NFA
	tab *engine.Tables
}

// libraryProbe times the set-up layers and every engine kind on the
// cases. stream selects the default path whose skip counters are read:
// Stream.EngineInfo (stream-quiet) or MatchWithInfo. Engine runs use each
// automaton as pap.Match does — decoded afresh, with lazily filled tables
// of its own per kind — and the default kind's views are returned for the
// traced operations.
func libraryProbe(out *Output, cases []probeCase, stream bool) (map[*nfa.NFA]engineView, error) {
	autos := distinct(cases)
	decoded := map[*nfa.NFA]*pap.Automaton{}
	var decodeErr error
	out.SetSampled("anml.decode_s", medianOf(probeReps, func() {
		for _, c := range autos {
			a, err := pap.DecodeANML(bytes.NewReader(c.anml))
			if err != nil {
				decodeErr = err
			}
			decoded[c.nfa] = a
		}
	}), probeReps)
	if decodeErr != nil {
		return nil, fmt.Errorf("anml decode: %w", decodeErr)
	}
	out.SetSampled("engine.tables_s", medianOf(probeReps, func() {
		for _, c := range autos {
			engine.NewTables(c.nfa).BuildAll()
		}
	}), probeReps)
	fresh := map[*nfa.NFA]*nfa.NFA{}
	for _, c := range autos {
		n, err := anml.Decode(bytes.NewReader(c.anml))
		if err != nil {
			return nil, fmt.Errorf("anml decode: %w", err)
		}
		fresh[c.nfa] = n
	}
	views := func() map[*nfa.NFA]engineView {
		v := map[*nfa.NFA]engineView{}
		for orig, n := range fresh {
			v[orig] = engineView{n: n, tab: engine.NewTables(n)}
		}
		return v
	}
	var autoViews map[*nfa.NFA]engineView
	out.SetSampled("prefilter.build_s", medianOf(probeReps, func() {
		for _, c := range autos {
			prefilter.Build(c.nfa)
		}
	}), probeReps)

	var cache engine.CacheStats
	fellBack := 0
	for _, name := range EngineKinds {
		kind, err := engine.ParseKind(name)
		if err != nil {
			return nil, err
		}
		var ownBytes int
		var ownTime time.Duration
		perRuleset := map[string][2]float64{}
		vs := views()
		if kind == engine.Auto {
			autoViews = vs
		}
		for _, c := range cases {
			v := vs[c.nfa]
			t0 := time.Now()
			res := engine.RunEngineOpts(v.n, c.input, kind, v.tab, engine.RunOpts{LiteralPrefilter: true})
			d := time.Since(t0)
			out.Gate.CheckHits(fmt.Sprintf("engine %s on %s", name, c.ruleset), hitsOf(res.Reports), c.ref)
			if c.own {
				ownBytes += len(c.input)
				ownTime += d
			}
			acc := perRuleset[c.ruleset]
			perRuleset[c.ruleset] = [2]float64{acc[0] + float64(len(c.input)), acc[1] + d.Seconds()}
			if kind == engine.LazyDFAKind && c.own {
				cache.Hits += res.Cache.Hits
				cache.Misses += res.Cache.Misses
				cache.Evictions += res.Cache.Evictions
				if res.Cache.FellBack {
					fellBack++
				}
			}
		}
		out.Set("engine."+name+".mbps", float64(ownBytes)/1e6/ownTime.Seconds())
		for r, acc := range perRuleset {
			out.EngineTable(r, name, acc[0]/1e6/acc[1])
			if kind == engine.Auto {
				out.Set("engine.auto.mbps."+r, acc[0]/1e6/acc[1])
			}
		}
	}
	out.Set("lazydfa.hit_ratio", safeDiv(float64(cache.Hits), float64(cache.Hits+cache.Misses)))
	out.Set("lazydfa.evictions", float64(cache.Evictions))
	out.Set("lazydfa.fellback", float64(fellBack))

	// engine.run_share: the engine run Match makes, over Match itself;
	// engine.dedupe_s: DedupeReports on that run's reports, per call.
	var runT, matchT, dedupeT time.Duration
	calls := 0
	for _, c := range cases {
		if !c.own {
			continue
		}
		v := autoViews[c.nfa]
		t0 := time.Now()
		res := engine.RunEngineOpts(v.n, c.input, engine.Auto, v.tab, engine.RunOpts{LiteralPrefilter: true})
		runT += time.Since(t0)
		t0 = time.Now()
		engine.DedupeReports(res.Reports)
		dedupeT += time.Since(t0)
		t0 = time.Now()
		decoded[c.nfa].Match(c.input)
		matchT += time.Since(t0)
		calls++
	}
	out.Set("engine.run_share", safeDiv(runT.Seconds(), matchT.Seconds()))
	out.SetSampled("engine.dedupe_s", dedupeT.Seconds()/float64(calls), calls)

	var skipped, baseline, total int64
	for _, c := range cases {
		if !c.own {
			continue
		}
		a := decoded[c.nfa]
		var info pap.EngineInfo
		if stream {
			s := a.NewStream()
			for off := 0; off < len(c.input); off += ChunkSize {
				s.Write(c.input[off:min(off+ChunkSize, len(c.input))])
			}
			info = s.EngineInfo()
		} else {
			_, info = a.MatchWithInfo(c.input, pap.EngineAuto)
		}
		skipped += info.PrefilterSkippedBytes
		baseline += info.BaselineSkippedBytes
		total += int64(len(c.input))
	}
	out.Set("prefilter.skip_ratio", safeDiv(float64(skipped), float64(total)))
	out.Set("engine.baseline_skip_ratio", safeDiv(float64(baseline), float64(total)))
	return autoViews, nil
}

// coreProbe runs MatchParallel's layers (traced plan and execute) and a
// separately timed golden pass over each case, reps times, and reports
// the core timings and the modelled counts. The counts come from the
// first rep; later reps must reproduce them exactly.
func coreProbe(out *Output, tr *Tracer, cases []probeCase, reps int) map[string]float64 {
	var first []*core.Result
	op := 1 << 30 // apart from the traced operations' IDs
	for r := 0; r < reps; r++ {
		for i, c := range cases {
			op++
			res, err := tracedParallel(tr, op, &Ruleset{Name: c.ruleset, NFA: c.nfa}, c.input)
			if err != nil || !res.Correct {
				out.Gate.Fail(fmt.Sprintf("core probe on %s: %v", c.ruleset, err))
				continue
			}
			out.Gate.CheckHits("core probe on "+c.ruleset, hitsOf(res.Reports), c.ref)
			if err := goldenProbe(tr, op, &Ruleset{Name: c.ruleset, NFA: c.nfa}, c.input); err != nil {
				out.Gate.Fail(fmt.Sprintf("golden probe on %s: %v", c.ruleset, err))
			}
			if r == 0 {
				first = append(first, res)
			} else if i < len(first) && modelledCounts([]*core.Result{first[i]}) != modelledCounts([]*core.Result{res}) {
				out.Gate.Fail("core probe on " + c.ruleset + ": modelled counts differ between runs of the same input")
			}
		}
	}
	counts := modelledCounts(first)
	for k, v := range counts.asMap() {
		out.Set(k, v)
	}
	return counts.asMap()
}

// coreCounts are the modelled per-layer counts of a set of parallel runs.
type coreCounts struct {
	AvgActiveFlows, TransitionRatio, ReportIncrease float64
	Convergences, Deactivations, FIVKills           int
	BaselineCycles, PAPCycles                       int64
	SwitchOverheadPct, HostCyclesAvg                float64
}

func modelledCounts(rs []*core.Result) coreCounts {
	var c coreCounts
	var events, trueEvents int64
	for _, r := range rs {
		c.AvgActiveFlows += r.AvgActiveFlows / float64(len(rs))
		c.TransitionRatio += r.TransitionRatio / float64(len(rs))
		c.SwitchOverheadPct += r.SwitchOverheadPct / float64(len(rs))
		c.HostCyclesAvg += float64(r.AvgHostCycles) / float64(len(rs))
		for _, s := range r.Segments {
			c.Convergences += s.Convergences
			c.Deactivations += s.Deactivations
			c.FIVKills += s.FIVKills
		}
		c.BaselineCycles += int64(r.BaselineCycles)
		c.PAPCycles += int64(r.TotalCycles)
		events += r.TotalEvents
		trueEvents += int64(len(r.Golden.Reports))
	}
	c.ReportIncrease = safeDiv(float64(events), float64(trueEvents))
	return c
}

func (c coreCounts) asMap() map[string]float64 {
	return map[string]float64{
		"core.avg_active_flows":  c.AvgActiveFlows,
		"core.convergences":      float64(c.Convergences),
		"core.deactivations":     float64(c.Deactivations),
		"core.fiv_kills":         float64(c.FIVKills),
		"core.transition_ratio":  c.TransitionRatio,
		"core.report_increase":   c.ReportIncrease,
		"ap.baseline_cycles":     float64(c.BaselineCycles),
		"ap.pap_cycles":          float64(c.PAPCycles),
		"ap.switch_overhead_pct": c.SwitchOverheadPct,
		"ap.host_cycles_avg":     c.HostCyclesAvg,
	}
}

// coreTimings reports the core layer times from the spans: plan and
// golden are means of their spans; enumeration is Plan.ExecuteContext's
// mean time less the golden pass it contains.
func coreTimings(out *Output, spans []Span) {
	mean := func(name string) float64 {
		ds := Durations(spans, name)
		if len(ds) == 0 {
			return 0
		}
		return Total(spans, name).Seconds() / float64(len(ds))
	}
	out.SetSampled("core.plan_s", mean("core.plan"), len(Durations(spans, "core.plan")))
	out.SetSampled("core.golden_s", mean("core.golden"), len(Durations(spans, "core.golden")))
	out.SetSampled("core.enumerate_s", mean("core.execute")-mean("core.golden"), len(Durations(spans, "core.execute")))
}

// serverProbe drives papd's handler in process, with no socket, on the
// papd-mixed ruleset and payloads, and times the server's own layers.
// loopbackP50 is the match-route p50 over a real socket in ms; when it is
// 0 the probe measures it against an in-process listener.
func serverProbe(out *Output, in *papdInputs, loopbackP50 float64, requests int) error {
	out.SetSampled("regex.compile_s", medianOf(probeReps, func() {
		regex.CompilePatterns("snort", in.rules.Patterns)
	}), probeReps)
	out.Set("nfa.states", float64(in.rules.NFA.Len()))

	srv := server.New(server.Config{})
	defer srv.Shutdown(context.Background())
	var regErr error
	rep := 0
	out.SetSampled("server.register_s", medianOf(probeReps, func() {
		rep++
		if _, err := srv.Registry().Register(fmt.Sprintf("probe-%d", rep), "regex", in.rules.Patterns, 0, "auto"); err != nil {
			regErr = err
		}
	}), probeReps)
	if regErr != nil {
		return fmt.Errorf("register: %w", regErr)
	}
	e, err := srv.Registry().Register(papdRuleset, "regex", in.rules.Patterns, 0, "auto")
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	h := srv.Handler()
	c := &handlerClient{h: h}

	var matchLat, writeLat []time.Duration
	var handlerTime, libTime time.Duration
	for i := 0; i < requests; i++ {
		p := in.matches[i%len(in.matches)]
		hits, d, err := c.match(p.body)
		if err != nil {
			return err
		}
		out.Gate.CheckHits("handler match", hits, p.ref)
		matchLat = append(matchLat, d)
		handlerTime += d
		t0 := time.Now()
		e.Automaton.Match(p.body)
		libTime += time.Since(t0)
	}
	for i := 0; len(writeLat) < requests; i++ {
		s := in.streams[i%len(in.streams)]
		hits, ds, err := c.session(s.writes)
		if err != nil {
			return err
		}
		out.Gate.CheckHits("handler stream", hits, s.ref)
		writeLat = append(writeLat, ds...)
	}
	ms, ws := Summarize(matchLat), Summarize(writeLat)
	out.SetSampled("server.handler_p50_ms.match", ms.P50, ms.N)
	out.SetSampled("server.handler_p99_ms.match", ms.P99, ms.N)
	out.SetSampled("server.handler_p50_ms.stream_write", ws.P50, ws.N)
	out.SetSampled("server.handler_p99_ms.stream_write", ws.P99, ws.N)
	out.Set("server.engine_share", safeDiv(libTime.Seconds(), handlerTime.Seconds()))

	if loopbackP50 == 0 {
		ts := httptest.NewServer(h)
		lc := &httpClient{base: ts.URL, c: ts.Client()}
		var lat []time.Duration
		for i := 0; i < requests/2; i++ {
			p := in.matches[i%len(in.matches)]
			hits, d, err := lc.match(p.body)
			if err != nil {
				ts.Close()
				return err
			}
			out.Gate.CheckHits("loopback match", hits, p.ref)
			lat = append(lat, d)
		}
		ts.Close()
		loopbackP50 = Summarize(lat).P50
	}
	out.Set("server.http_overhead_ms", loopbackP50-ms.P50)

	out.SetSampled("server.pool_do_us", poolDoP50(runtime.GOMAXPROCS(0), requests)*1e3, requests*runtime.NumCPU())

	// Counters as papd would expose them; the papd-mixed run replaces
	// them with the figures scraped from the papd process.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	m := parseMetrics(rec.Body.String())
	out.Set("papd.rejected_total", m.rejected)
	out.Set("papd.batches_total", m.batches)
	return nil
}

// poolDoP50 is the p50 of Pool.Do with an empty task, in ms, called from
// nproc goroutines at once on a pool sized as papd sizes it.
func poolDoP50(workers, calls int) float64 {
	pool := server.NewPool(workers, 4*workers)
	defer pool.Close()
	callers := runtime.NumCPU()
	lat := make([][]time.Duration, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < calls; i++ {
				t0 := time.Now()
				if err := pool.Do(ctx, func() {}); err != nil {
					continue
				}
				lat[g] = append(lat[g], time.Since(t0))
			}
		}(g)
	}
	wg.Wait()
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	return Summarize(all).P50
}

// matchJSON is the part of papd's match and stream-write responses the
// benchmark checks.
type matchResp struct {
	Matches []struct {
		Code   int32 `json:"code"`
		Offset int64 `json:"offset"`
	} `json:"matches"`
	Offset int64 `json:"offset"`
}

func (r matchResp) hits() []Hit {
	out := make([]Hit, len(r.Matches))
	for i, m := range r.Matches {
		out[i] = Hit{Offset: m.Offset, Code: m.Code}
	}
	return out
}

// handlerClient calls papd's handler in process.
type handlerClient struct{ h http.Handler }

func (c *handlerClient) do(method, path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	c.h.ServeHTTP(rec, req)
	return rec, time.Since(t0)
}

func (c *handlerClient) match(body []byte) ([]Hit, time.Duration, error) {
	rec, d := c.do(http.MethodPost, "/v1/automata/"+papdRuleset+"/match", body)
	if rec.Code != http.StatusOK {
		return nil, d, fmt.Errorf("handler match: status %d: %s", rec.Code, rec.Body.String())
	}
	var r matchResp
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		return nil, d, fmt.Errorf("handler match: %w", err)
	}
	return r.hits(), d, nil
}

// session opens a stream, writes every chunk (timing each write) and
// closes it.
func (c *handlerClient) session(writes [][]byte) ([]Hit, []time.Duration, error) {
	rec, _ := c.do(http.MethodPost, "/v1/streams", []byte(`{"automaton":"`+papdRuleset+`"}`))
	if rec.Code != http.StatusCreated {
		return nil, nil, fmt.Errorf("handler stream open: status %d", rec.Code)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		return nil, nil, fmt.Errorf("handler stream open: %w", err)
	}
	var hits []Hit
	var lat []time.Duration
	for _, w := range writes {
		rec, d := c.do(http.MethodPost, "/v1/streams/"+info.ID+"/write", w)
		if rec.Code != http.StatusOK {
			return nil, nil, fmt.Errorf("handler stream write: status %d", rec.Code)
		}
		var r matchResp
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			return nil, nil, fmt.Errorf("handler stream write: %w", err)
		}
		hits = append(hits, r.hits()...)
		lat = append(lat, d)
	}
	if rec, _ := c.do(http.MethodDelete, "/v1/streams/"+info.ID, nil); rec.Code/100 != 2 {
		return nil, nil, fmt.Errorf("handler stream close: status %d", rec.Code)
	}
	return hits, lat, nil
}

// encodeANML is the ANML form of an automaton, for decode probes.
func encodeANML(n *nfa.NFA) ([]byte, error) {
	var buf bytes.Buffer
	err := anml.Encode(&buf, n)
	return buf.Bytes(), err
}

// probeCases are the library workload's own cases plus extra cases for
// the rulesets it does not use.
func (w *libWorkload) probeCases(seed int64, small bool) ([]probeCase, error) {
	have := map[string]bool{}
	var cases []probeCase
	for _, c := range w.cases {
		have[c.rs.Name] = true
		cases = append(cases, probeCase{ruleset: c.rs.Name, nfa: c.rs.NFA, anml: c.rs.ANML,
			input: c.input, ref: c.ref, own: true})
	}
	extra, err := extraCases(seed, small, have, w.entry == entryStream)
	return append(cases, extra...), err
}

// extraCases builds the rulesets missing from have, each with one input
// of the workload's kind of traffic, so that every engine.auto.mbps.<ruleset>
// figure is measured in every traced run.
func extraCases(seed int64, small bool, have map[string]bool, quiet bool) ([]probeCase, error) {
	size := 16 << 10
	if small {
		size = 2 << 10
	}
	var out []probeCase
	for i, name := range Rulesets {
		if have[name] {
			continue
		}
		rs, err := BuildRuleset(name, RulesetSeed)
		if err != nil {
			return nil, err
		}
		in := rs.DenseTrace(size, seed+int64(i))
		if quiet {
			sessions, err := rs.QuietSessions([]int{size}, seed+int64(i))
			if err != nil {
				return nil, err
			}
			in = sessions[0]
		}
		out = append(out, probeCase{ruleset: name, nfa: rs.NFA, anml: rs.ANML, input: in,
			ref: Reference(rs.NFA, in)})
	}
	return out, nil
}

// largestPerRuleset returns the largest own case of each ruleset, in
// case order, with its input cut to at most n bytes.
func largestPerRuleset(cases []probeCase, n int) []probeCase {
	idx := map[string]int{}
	var out []probeCase
	for _, c := range cases {
		if !c.own {
			continue
		}
		i, ok := idx[c.ruleset]
		if !ok {
			idx[c.ruleset] = len(out)
			out = append(out, c)
		} else if len(c.input) > len(out[i].input) {
			out[i] = c
		}
	}
	for i, c := range out {
		if len(c.input) > n {
			out[i].input = c.input[:n]
			out[i].ref = Reference(c.nfa, out[i].input)
		}
	}
	return out
}

// coreBytes is the input size of the core probe on workloads other than
// parallel-dense.
func coreBytes(small bool) int {
	if small {
		return 2 << 10
	}
	return 16 << 10
}

// serverRequests is the number of in-process requests per route of the
// server probe.
func serverRequests(small bool) int {
	if small {
		return 20
	}
	return 1000
}
