package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pap/internal/server"
)

// papdRuleset is the name the benchmark registers its ruleset under.
const papdRuleset = "snort"

// papdWrites is the number of writes of one stream session.
const papdWrites = 4

// papdBlock is the number of units of work (a match request, or a stream
// session) in one block of the papd-mixed figures: 64 match requests and
// 32 sessions, 256 requests — short enough that blocks the hypervisor
// stole no CPU time from exist even on a busy host.
const papdBlock = 96

type papdPayload struct {
	body []byte
	ref  []Hit
}

type papdSession struct {
	writes [][]byte
	ref    []Hit // over the concatenated writes, offsets global
}

// papdInputs are papd-mixed's ruleset and traffic, generated from the
// seed: ≈1 KiB quiet match payloads with two planted hits, and stream
// sessions of four ≈1 KiB writes with a hit planted across a write
// boundary as well.
type papdInputs struct {
	rules   *PapdRules
	matches []papdPayload
	streams []papdSession
}

func newPapdInputs(seed int64, small bool) (*papdInputs, error) {
	rules, err := NewPapdRules(RulesetSeed)
	if err != nil {
		return nil, err
	}
	in := &papdInputs{rules: rules}
	rng := rand.New(rand.NewSource(seed + 1))
	nMatch, nStream := 256, 64
	if small {
		nMatch, nStream = 8, 4
	}
	for i := 0; i < nMatch; i++ {
		body := rules.Payload(rng, 896+rng.Intn(256), 2)
		in.matches = append(in.matches, papdPayload{body: body, ref: Reference(rules.NFA, body)})
	}
	for i := 0; i < nStream; i++ {
		whole := rules.Payload(rng, papdWrites*1024, 2*papdWrites)
		// Plant one more hit across the middle write boundary, so the
		// server's chunk-boundary carry is exercised.
		s := rules.plants[rng.Intn(len(rules.plants))](rng)
		copy(whole[2*1024-len(s)/2:], s)
		var sess papdSession
		for w := 0; w < papdWrites; w++ {
			sess.writes = append(sess.writes, whole[w*1024:(w+1)*1024])
		}
		sess.ref = Reference(rules.NFA, whole)
		in.streams = append(in.streams, sess)
	}
	return in, nil
}

// payloadBytes is the input volume of one pass over every payload.
func (in *papdInputs) payloadBytes() int {
	n := 0
	for _, p := range in.matches {
		n += len(p.body)
	}
	for _, s := range in.streams {
		for _, w := range s.writes {
			n += len(w)
		}
	}
	return n
}

// probeCases are the library-probe cases of papd-mixed: the ruleset over
// its payloads, concatenated.
func (in *papdInputs) probeCase() (probeCase, error) {
	var all []byte
	for _, p := range in.matches {
		all = append(all, p.body...)
	}
	doc, err := encodeANML(in.rules.NFA)
	if err != nil {
		return probeCase{}, err
	}
	return probeCase{ruleset: "papd", nfa: in.rules.NFA, anml: doc, input: all,
		ref: Reference(in.rules.NFA, all), own: true}, nil
}

// httpClient talks to papd over a socket.
type httpClient struct {
	base string
	c    *http.Client
}

func (c *httpClient) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(t0), err
}

func (c *httpClient) match(body []byte) ([]Hit, time.Duration, error) {
	code, data, d, err := c.do(http.MethodPost, "/v1/automata/"+papdRuleset+"/match", body)
	if err != nil {
		return nil, d, err
	}
	if code != http.StatusOK {
		return nil, d, fmt.Errorf("match: status %d: %s", code, data)
	}
	var r matchResp
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, d, fmt.Errorf("match: %w", err)
	}
	return r.hits(), d, nil
}

// papdProc is one papd process of the commit under test.
type papdProc struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	done   chan struct{}
	once   sync.Once
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startPapd starts papd with default flags except the listen address,
// waits for /readyz and registers the ruleset. The caller must stop it.
func startPapd(bin string, patterns []string, client *http.Client) (*papdProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &papdProc{cmd: exec.Command(bin, "-addr", addr), base: "http://" + addr, done: make(chan struct{})}
	p.cmd.Stderr = &p.stderr
	// Take papd down with the benchmark if the benchmark dies first.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start papd: %w", err)
	}
	go func() { p.cmd.Wait(); close(p.done) }()
	setChild(p)
	c := &httpClient{base: p.base, c: client}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _, _, err := c.do(http.MethodGet, "/readyz", nil)
		if err == nil && code == http.StatusOK {
			break
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("papd exited before ready: %s", p.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("papd not ready after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	reg, _ := json.Marshal(map[string]any{"name": papdRuleset, "patterns": patterns})
	code, data, _, err := c.do(http.MethodPost, "/v1/automata", reg)
	if err != nil || code != http.StatusCreated {
		p.stop()
		return nil, fmt.Errorf("register ruleset: status %d, %v: %s", code, err, data)
	}
	return p, nil
}

// stop sends SIGTERM, papd's drain signal, and waits for the process to
// exit, killing it if the drain overruns.
func (p *papdProc) stop() {
	p.once.Do(func() {
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(20 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
	})
}

// child is the papd process currently running, so a signal to the
// benchmark can stop it.
var child struct {
	sync.Mutex
	p *papdProc
}

func setChild(p *papdProc) {
	child.Lock()
	child.p = p
	child.Unlock()
}

// stopChildren stops the running papd process, if any, and waits for it.
func stopChildren() {
	child.Lock()
	p := child.p
	child.Unlock()
	if p != nil {
		p.stop()
	}
}

// papdMetrics are the /metrics counters the benchmark reads.
type papdMetrics struct{ rejected, batches float64 }

// parseMetrics sums papd's refusal counters and reads the coalescer's
// batch counter (absent when coalescing is off, which reads as 0).
func parseMetrics(text string) papdMetrics {
	var m papdMetrics
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		base, _, _ := strings.Cut(name, "{")
		switch base {
		case "papd_worker_pool_rejected_total", "papd_quota_rejected_total":
			m.rejected += v
		case "papd_batches_total":
			m.batches += v
		}
	}
	return m
}

// papdWorkload is papd-mixed.
type papdWorkload struct {
	in     *papdInputs
	bin    string
	conns  int
	proc   *papdProc
	client *http.Client
}

func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
}

// setup starts papd reps times, each time through /readyz and ruleset
// registration to the first answered match, and reports the median as
// setup_s. The last process serves the run.
func (w *papdWorkload) setup(out *Output, reps int) error {
	var times []time.Duration
	for r := 0; r < reps; r++ {
		if w.proc != nil {
			w.proc.stop()
			w.proc = nil
		}
		w.client = &http.Client{Transport: newTransport(w.conns)}
		t0 := time.Now()
		p, err := startPapd(w.bin, w.in.rules.Patterns, w.client)
		if err != nil {
			return err
		}
		w.proc = p
		c := &httpClient{base: p.base, c: w.client}
		first := w.in.matches[0]
		hits, _, err := c.match(first.body)
		if err != nil {
			return fmt.Errorf("first match: %w", err)
		}
		times = append(times, time.Since(t0))
		out.Gate.CheckHits("papd first match", hits, first.ref)
	}
	out.SetSampled("setup_s", MedianDuration(times), len(times))
	return nil
}

// close stops papd.
func (w *papdWorkload) close() {
	if w.proc != nil {
		w.proc.stop()
		w.proc = nil
	}
}

// load drives papd closed-loop from conns goroutines, one keep-alive
// connection each, for d: every third unit of work is a stream session
// (open, four writes, close), the rest are match requests. Every request
// is timed by the caller; every response is checked.
func (w *papdWorkload) load(out *Output, tr *Tracer, d time.Duration) loadStats {
	type worker struct {
		samples           []Sample
		matchLat          []time.Duration
		attempted, failed int
		gate              Gate
		spans             *Tracer
		opID, opSpan      int
	}
	ws := make([]*worker, w.conns)
	steal := &StealMeter{}
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for g := range ws {
		wk := &worker{}
		if tr != nil {
			wk.spans = tr.Fork()
		}
		ws[g] = wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &httpClient{base: w.proc.base, c: w.client}
			req := func(name, method, path string, body []byte) (int, []byte, error) {
				wk.attempted++
				at := time.Since(start)
				sp := wk.spans.Start(wk.opID, wk.opSpan, name)
				code, data, dur, err := c.do(method, path, body)
				wk.spans.End(sp)
				n := 0
				switch name {
				case "http.match":
					wk.matchLat = append(wk.matchLat, dur)
					n = len(body)
				case "http.stream_write":
					n = len(body)
				}
				wk.samples = append(wk.samples, Sample{Block: (wk.opID - 1) / papdBlock, At: at, Dur: dur, Bytes: n})
				if err != nil || code/100 != 2 {
					wk.failed++
					if err == nil {
						err = fmt.Errorf("status %d: %s", code, data)
					}
					return code, data, err
				}
				return code, data, nil
			}
			for time.Now().Before(deadline) {
				u := int(next.Add(1) - 1)
				if u%papdBlock == 0 {
					steal.Mark(u / papdBlock)
				}
				wk.opID = u + 1
				wk.opSpan = wk.spans.Start(wk.opID, 0, "op")
				if u%3 != 2 {
					p := w.in.matches[u%len(w.in.matches)]
					_, data, err := req("http.match", http.MethodPost, "/v1/automata/"+papdRuleset+"/match", p.body)
					wk.spans.End(wk.opSpan)
					if err != nil {
						continue
					}
					var r matchResp
					if json.Unmarshal(data, &r) != nil || !wk.gate.CheckHits("papd match", r.hits(), p.ref) {
						wk.failed++
					}
					continue
				}
				s := w.in.streams[(u/3)%len(w.in.streams)]
				_, data, err := req("http.stream_open", http.MethodPost, "/v1/streams", []byte(`{"automaton":"`+papdRuleset+`"}`))
				if err != nil {
					wk.spans.End(wk.opSpan)
					continue
				}
				var info struct {
					ID string `json:"id"`
				}
				if json.Unmarshal(data, &info) != nil {
					wk.spans.End(wk.opSpan)
					wk.failed++
					continue
				}
				var hits []Hit
				var offset int64
				ok := true
				for _, chunk := range s.writes {
					_, data, err := req("http.stream_write", http.MethodPost, "/v1/streams/"+info.ID+"/write", chunk)
					if err != nil {
						ok = false
						break
					}
					var r matchResp
					offset += int64(len(chunk))
					if json.Unmarshal(data, &r) != nil || r.Offset != offset {
						wk.failed++
						wk.gate.Fail(fmt.Sprintf("papd stream write: offset %d, want %d", r.Offset, offset))
						ok = false
						break
					}
					hits = append(hits, r.hits()...)
				}
				req("http.stream_close", http.MethodDelete, "/v1/streams/"+info.ID, nil)
				wk.spans.End(wk.opSpan)
				if ok && !wk.gate.CheckHits("papd stream session", hits, s.ref) {
					wk.failed++
				}
			}
		}()
	}
	wg.Wait()
	steal.Mark(int(next.Load()+papdBlock-1) / papdBlock)
	st := loadStats{steal: steal}
	for _, wk := range ws {
		st.samples = append(st.samples, wk.samples...)
		st.matchLat = append(st.matchLat, wk.matchLat...)
		out.Attempted += wk.attempted
		out.Failed += wk.failed
		out.Gate.Checked += wk.gate.Checked
		out.Gate.Mismatches += wk.gate.Mismatches
		if out.Gate.First == "" {
			out.Gate.First = wk.gate.First
		}
		if tr != nil {
			tr.merge(wk.spans)
		}
	}
	return st
}

// loadStats are the caller-side figures of one load phase.
type loadStats struct {
	samples  []Sample        // every request
	matchLat []time.Duration // match requests
	steal    *StealMeter
}

func (s loadStats) mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	var t time.Duration
	for _, x := range s.samples {
		t += x.Dur
	}
	return t / time.Duration(len(s.samples))
}

// scrape reads papd's /metrics counters and enforces the default
// configuration: with no -batch-window, papd must not have coalesced.
func (w *papdWorkload) scrape(out *Output) error {
	c := &httpClient{base: w.proc.base, c: w.client}
	code, data, _, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("scrape /metrics: status %d, %v", code, err)
	}
	m := parseMetrics(string(data))
	out.Set("papd.rejected_total", m.rejected)
	out.Set("papd.batches_total", m.batches)
	if m.batches != 0 {
		out.Gate.Fail(fmt.Sprintf("papd coalesced %v batches at its default flags", m.batches))
	}
	return nil
}

// inProcess measures what a socket cannot show from outside papd's
// process, on an in-process server built exactly as papd builds it at
// its defaults: the live heap the registered ruleset holds after a forced
// GC (setup_heap_mb, the median of three set-ups), and the heap bytes the
// handler allocates per payload byte over one pass of the request mix
// (alloc_b_per_byte).
func (w *papdWorkload) inProcess(out *Output) error {
	var heaps []float64
	var srv *server.Server
	for r := 0; r < 3; r++ {
		if srv != nil {
			srv.Shutdown(context.Background())
			srv = nil
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		srv = server.New(server.Config{})
		if _, err := srv.Registry().Register(papdRuleset, "regex", w.in.rules.Patterns, 0, "auto"); err != nil {
			srv.Shutdown(context.Background())
			return fmt.Errorf("in-process register: %w", err)
		}
		if _, _, err := (&handlerClient{h: srv.Handler()}).match(w.in.matches[0].body); err != nil {
			srv.Shutdown(context.Background())
			return err
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		heaps = append(heaps, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/1e6)
	}
	defer srv.Shutdown(context.Background())
	out.SetSampled("setup_heap_mb", Median(heaps), len(heaps))

	c := &handlerClient{h: srv.Handler()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range w.in.matches {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/automata/"+papdRuleset+"/match", bytes.NewReader(p.body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process match: status %d", rec.Code)
		}
	}
	for _, s := range w.in.streams {
		if _, _, err := c.session(s.writes); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	out.Set("alloc_b_per_byte", float64(after.TotalAlloc-before.TotalAlloc)/float64(w.in.payloadBytes()))
	return nil
}

// papdBinary checks that the papd binary exists.
func papdBinary(path string) error {
	if path == "" {
		return errors.New("no papd binary given (-papd)")
	}
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("papd binary: %w", err)
	}
	return nil
}
