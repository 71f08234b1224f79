package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"pap"
	"pap/internal/regex"
)

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(v, 0.5); got != 5.5 {
		t.Errorf("p50 = %v, want 5.5", got)
	}
	if got := Percentile(v, 0.99); math.Abs(got-9.91) > 1e-9 {
		t.Errorf("p99 = %v, want 9.91", got)
	}
	if got := Percentile([]float64{4}, 0.99); got != 4 {
		t.Errorf("single-sample p99 = %v, want 4", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty percentile is not NaN")
	}
	ds := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if s := Summarize(ds); s.N != 3 || s.P50 != 2 || math.Abs(s.P99-2.98) > 1e-9 {
		t.Errorf("Summarize = %+v, want N=3 P50=2 P99=2.98", s)
	}
}

func TestReduceOverBlocks(t *testing.T) {
	var ss []Sample
	// Ten blocks of 200 back-to-back 1 ms calls on 1000 bytes, except one
	// block spoiled by 50 ms calls, and a trailing partial block.
	at := time.Duration(0)
	for b := 0; b < 11; b++ {
		d, calls := time.Millisecond, 200
		if b == 3 {
			d = 50 * time.Millisecond
		}
		if b == 10 {
			d, calls = 9*time.Millisecond, 3
		}
		for i := 0; i < calls; i++ {
			ss = append(ss, Sample{Block: b, At: at, Dur: d, Bytes: 1000})
			at += d
		}
	}
	got := Reduce(ss, nil, true)
	if got.Blocks != 10 || got.Calls != 2000 || got.PctCalls != 2000 {
		t.Fatalf("blocks %d calls %d/%d, want 10 and 2000", got.Blocks, got.Calls, got.PctCalls)
	}
	// With no steal measured, rates are block medians and percentiles
	// pool every block, the spoiled one too.
	if got.P50 != 1 || got.P99 != 50 || math.Abs(got.MBps-1) > 1e-9 || math.Abs(got.OpsPerS-1000) > 1e-6 {
		t.Errorf("Reduce = %+v, want p50 1 ms, p99 50 ms, 1 MB/s, 1000/s", got)
	}
	// When the spoiled block is the one the hypervisor stole time from,
	// its calls leave the percentiles.
	steal := &StealMeter{marks: map[int]int64{}}
	total := int64(0)
	for b := 0; b <= 11; b++ {
		steal.marks[b] = total
		total += int64(b) // steal grows block by block...
		if b == 3 {
			total += 100000 // ...and block 3 lost the most
		}
	}
	// The least-stolen blocks are taken until they hold 1,000 calls.
	if got := Reduce(ss, steal, true); got.P99 != 1 || got.PctCalls != 1000 {
		t.Errorf("Reduce with steal = %+v, want p99 1 ms over the 1000 calls of the least-stolen blocks", got)
	}
	// Wall-clock rates: the same calls with 1 ms gaps between them.
	for i := range ss {
		ss[i].At *= 2
	}
	if open := Reduce(ss, nil, false); math.Abs(open.OpsPerS-200000.0/399) > 1e-6 {
		t.Errorf("wall-clock ops/s = %v, want %v", open.OpsPerS, 200000.0/399)
	}
	if one := Reduce(ss[:5], nil, true); one.Blocks != 1 || one.Calls != 5 {
		t.Errorf("a single partial block was dropped: %+v", one)
	}
}

func TestAtZeroReadsTheLineAtZeroSteal(t *testing.T) {
	// Throughput falls one unit per tick of steal; one block is an
	// outlier. The fitted value at zero steal is the clean one.
	x := []float64{2, 4, 6, 8, 10, 12, 14}
	y := []float64{84, 82, 80, 78, 20, 74, 72}
	if got := AtZero(x, y); math.Abs(got-86) > 1e-9 {
		t.Errorf("AtZero = %v, want 86", got)
	}
	if got := AtZero([]float64{0, 0, 0}, []float64{3, 1, 2}); got != 2 {
		t.Errorf("AtZero with no steal = %v, want the median 2", got)
	}
}

func TestSelfTimesNestedSpans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{ID: 1, Op: 1, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 2, Op: 1, Name: "b", Start: ms(20), End: ms(30)},
		// Two overlapping children of op count their union once.
		{ID: 4, Parent: 1, Op: 1, Name: "c", Start: ms(40), End: ms(70)},
		{ID: 5, Parent: 1, Op: 1, Name: "c", Start: ms(60), End: ms(90)},
	}
	self := SelfTimes(spans)
	want := map[string]time.Duration{"op": ms(20), "a": ms(30), "b": ms(10), "c": ms(60)}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self(%s) = %v, want %v", k, self[k], v)
		}
	}
	if got := coverage(spans[:4]); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("coverage = %v, want 0.7", got)
	}
}

func TestGateCatchesInjectedWrongResult(t *testing.T) {
	n, err := regex.CompilePatterns("t", []string{"abc", "b+c", "x[0-9]y"})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("zzabczzbbbcx5yabc")
	ref := Reference(n, input)
	if len(ref) == 0 {
		t.Fatal("reference found no hits")
	}
	a, err := pap.Compile("t", []string{"abc", "b+c", "x[0-9]y"})
	if err != nil {
		t.Fatal(err)
	}
	var g Gate
	got := a.Match(input)
	if !g.CheckMatches("clean", got, ref) {
		t.Fatalf("correct result rejected: %s", g.First)
	}
	for name, mutate := range map[string]func([]pap.Match) []pap.Match{
		"offset": func(ms []pap.Match) []pap.Match { ms[0].Offset++; return ms },
		"code":   func(ms []pap.Match) []pap.Match { ms[len(ms)-1].Code += 7; return ms },
		"drop":   func(ms []pap.Match) []pap.Match { return ms[1:] },
		"extra":  func(ms []pap.Match) []pap.Match { return append(ms, pap.Match{Code: 0, Offset: 1}) },
	} {
		g := Gate{}
		wrong := mutate(append([]pap.Match(nil), got...))
		if g.CheckMatches(name, wrong, ref) || g.Mismatches != 1 || g.First == "" {
			t.Errorf("%s: injected wrong result passed the gate", name)
		}
	}
	// A duplicate (offset, code) pair from a second reporting state is
	// the same hit, not a wrong result.
	if !g.CheckMatches("dup", append(append([]pap.Match(nil), got...), got[0]), ref) {
		t.Error("duplicate hit rejected")
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP papd_worker_pool_rejected_total x
papd_worker_pool_rejected_total 3
papd_quota_rejected_total{tenant="a"} 2
papd_quota_rejected_total{tenant="b"} 1
papd_batches_total 0
papd_batched_requests_total 9
`
	m := parseMetrics(text)
	if m.rejected != 6 || m.batches != 0 {
		t.Errorf("parseMetrics = %+v, want rejected 6, batches 0", m)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// code reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, Workloads)
	}
	for i := range names {
		if i < len(Workloads) && names[i] != Workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, names[i], Workloads[i])
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []MetricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, EndToEnd)
	same("per_layer", b.PerLayer, PerLayer)
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each reports all of its metrics with no wrong result.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds papd and runs every workload")
	}
	dir := t.TempDir()
	papd := filepath.Join(dir, "papd")
	build := exec.Command("go", "build", "-o", papd, "pap/cmd/papd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build papd: %v\n%s", err, out)
	}
	for _, w := range append(append([]string(nil), Workloads...), PapdMixed) {
		for _, trace := range []bool{false, true} {
			o := Options{Workload: w, Seed: 3, Seconds: 0.3, Trace: trace, Papd: papd, OutDir: dir, Small: true}
			out, err := Run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			defs := EndToEnd
			if trace {
				defs = PerLayer
			}
			if _, err := out.Select(defs); err != nil {
				t.Errorf("%s trace=%v: %v", w, trace, err)
			}
			if out.Gate.Mismatches != 0 || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: %d mismatches (%s), %d of %d failed", w, trace,
					out.Gate.Mismatches, out.Gate.First, out.Failed, out.Attempted)
			}
			if !trace && out.metrics["ok_ratio"] != 1 {
				t.Errorf("%s: ok_ratio %v", w, out.metrics["ok_ratio"])
			}
			if trace && w != PapdMixed {
				if c := out.metrics["trace.coverage"]; c < 0.9 || c > 1.0001 {
					t.Errorf("%s: span self times cover %.3f of operation time", w, c)
				}
			}
		}
	}
}
