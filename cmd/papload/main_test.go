package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPct(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// Nearest-rank estimator: i = round(N*q/100) - 1.
	cases := []struct {
		q, want float64
	}{
		{50, 5},
		{95, 10},
		{99, 10},
		{100, 10},
	}
	for _, c := range cases {
		if got := pct(sorted, c.q); got != c.want {
			t.Errorf("pct(%.0f) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := pct(nil, 50); got != 0 {
		t.Errorf("pct(empty) = %v, want 0", got)
	}
	if got := pct([]float64{7}, 99); got != 7 {
		t.Errorf("pct(single, 99) = %v, want 7", got)
	}
}

func TestParseMetricValue(t *testing.T) {
	cases := []struct {
		line string
		want int64
	}{
		{"papd_worker_pool_rejected_total 42", 42},
		{`papd_router_forwarded_total{peer="a:1"} 7`, 7},
		{"papd_parallel_speedup_sum 12.5", 12},
		{"garbage", 0},
	}
	for _, c := range cases {
		if got := parseMetricValue(c.line); got != c.want {
			t.Errorf("parseMetricValue(%q) = %d, want %d", c.line, got, c.want)
		}
	}
}

// TestRunOnceSmoke drives a real single-replica load for a fraction of a
// second: traffic flows and nothing errors across a hot reload.
func TestRunOnceSmoke(t *testing.T) {
	rep, err := runOnce(options{
		replicas: 1, ruleset: "smoke", mode: "mixed",
		duration: 400 * time.Millisecond, conns: 4,
		payload: 128, seed: 1, reloads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Errors != 0 || rep.SessionResets != 0 {
		t.Fatalf("%d errors, %d session resets, want 0/0", rep.Errors, rep.SessionResets)
	}
	if rep.Reloads != 1 {
		t.Errorf("reloads = %d, want 1", rep.Reloads)
	}
}

// TestRunBenchSmoke sweeps a 1-replica "cluster" and checks the scaling
// table lands on disk with one run per size.
func TestRunBenchSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	err := runBench(options{
		replicas: 1, ruleset: "bench", mode: "match",
		duration: 300 * time.Millisecond, conns: 2,
		payload: 64, seed: 1,
	}, 1, out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var table struct {
		Environment environment `json:"environment"`
		Runs        []report    `json:"runs"`
	}
	if err := json.Unmarshal(data, &table); err != nil {
		t.Fatalf("bench table not JSON: %v\n%s", err, data)
	}
	if env := table.Environment; env.CPU == "" || env.NProc < 1 || env.GOMAXPROCS < 1 {
		t.Fatalf("bench environment = %+v, want CPU, nproc and GOMAXPROCS", env)
	}
	if len(table.Runs) != 1 || table.Runs[0].Replicas != 1 {
		t.Fatalf("bench runs = %+v, want one 1-replica run", table.Runs)
	}
	if table.Runs[0].Requests == 0 || table.Runs[0].Errors != 0 {
		t.Fatalf("bench run = %+v, want traffic and zero errors", table.Runs[0])
	}

	// -bench refuses external targets: it owns its cluster sizes.
	if err := runBench(options{targets: []string{"x:1"}}, 1, ""); err == nil {
		t.Fatal("runBench with -targets must error")
	}
}
