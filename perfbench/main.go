// Command perfbench is the repository's benchmark: it runs one named
// workload through the public entry points at their defaults (pap.Match,
// Stream.Write, MatchParallel, and the papd binary over loopback), checks
// every result against the sparse reference engine, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as one
// JSON object on the last line of standard output.
//
//	go build -o bench ./perfbench && go build -o papd ./cmd/papd
//	./bench -papd ./papd -workload match-dense -seed 1 -seconds 10 -trace 0
//
// perfbench/run.sh does both builds and runs it; see perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Workloads are the workloads BENCHMARK.json lists.
var Workloads = []string{"match-dense", "stream-quiet", "parallel-dense"}

// PapdMixed drives the papd binary over loopback. It stays runnable, but
// BENCHMARK.json leaves it out: its p99 swings with hypervisor steal far
// beyond any bound a regression check could use (see README.md).
const PapdMixed = "papd-mixed"

// Options are one run's settings.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Papd     string // papd binary built from the commit under test
	OutDir   string // where spans and run records are written
	Small    bool   // tiny inputs, for the benchmark's own tests
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 11

// papdConns is the number of keep-alive connections papd-mixed drives
// papd over, closed loop. One keeps the client from competing with papd
// for the CPUs: on a 2-vCPU machine, two connections tripled the
// run-to-run spread of ops_per_s.
const papdConns = 1

// tracedShare is the part of a traced run's measuring time spent traced;
// the rest runs untraced, to price the tracing.
const tracedShare = 0.7

func main() {
	var o Options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload: match-dense, stream-quiet, parallel-dense or papd-mixed")
	flag.Int64Var(&o.Seed, "seed", 1, "input seed")
	flag.Float64Var(&o.Seconds, "seconds", 10, "measuring time")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.Papd, "papd", "", "papd binary (papd-mixed)")
	flag.StringVar(&o.OutDir, "out", ".bench_build", "directory for spans and run records")
	flag.Parse()
	o.Trace = trace == 1

	// papd runs as a child process; stop it if the benchmark is stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := make(chan int, 1)
	go func() { code <- run(o) }()
	select {
	case c := <-code:
		os.Exit(c)
	case <-ctx.Done():
		stopChildren()
		os.Exit(2)
	}
}

// run executes one run, prints its result and returns the exit code.
func run(o Options) int {
	out, err := Run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defs := EndToEnd
	if o.Trace {
		defs = PerLayer
	}
	rec, err := json.Marshal(Environment(o))
	if err == nil {
		fmt.Printf("record %s\n", rec)
	}
	out.WriteTable(os.Stdout, defs)
	out.WriteEngineTable(os.Stdout)
	fmt.Printf("checked %d results, %d mismatches; %d of %d operations failed\n",
		out.Gate.Checked, out.Gate.Mismatches, out.Failed, out.Attempted)
	metrics, err := out.Select(defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	correct := out.Gate.Mismatches == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": out.Attempted,
		"failed":    out.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: wrong results: %s\n", out.Gate.First)
		return 1
	}
	return 0
}

// Run executes one run of a workload and returns its figures.
func Run(o Options) (*Output, error) {
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	out := newOutput()
	d := time.Duration(o.Seconds * float64(time.Second))
	var err error
	switch o.Workload {
	case "match-dense":
		err = runLib(out, o, entryMatch, d)
	case "stream-quiet":
		err = runLib(out, o, entryStream, d)
	case "parallel-dense":
		err = runLib(out, o, entryParallel, d)
	case PapdMixed:
		err = runPapd(out, o, d)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v or %s)", o.Workload, Workloads, PapdMixed)
	}
	return out, err
}

func runLib(out *Output, o Options, e entry, d time.Duration) error {
	w, err := newLibWorkload(o.Workload, e, o.Seed, o.Small)
	if err != nil {
		return err
	}
	if err := w.setup(out, setupReps); err != nil {
		return err
	}
	w.references()
	if !o.Trace {
		st := w.runUntraced(out, d)
		w.report(out, st)
		w.allocPass(out)
		if e == entryParallel {
			figs := map[string]modelledStats{}
			for i, c := range w.cases {
				if c.model != nil {
					figs[fmt.Sprintf("%d-%s", i, c.rs.Name)] = *c.model
				}
			}
			checkRecord(out, o, figs)
		}
		return nil
	}

	cases, err := w.probeCases(o.Seed, o.Small)
	if err != nil {
		return err
	}
	views, err := libraryProbe(out, cases, e == entryStream)
	if err != nil {
		return err
	}
	byRuleset := make(map[*Ruleset]engineView)
	for _, rs := range w.rulesets {
		byRuleset[rs] = views[rs.NFA]
	}
	tr := NewTracer()
	untraced := w.runUntraced(out, time.Duration(float64(d)*(1-tracedShare)))
	traced := w.runTraced(out, tr, byRuleset, time.Duration(float64(d)*tracedShare))
	var over time.Duration
	for ci := range w.cases {
		over += traced.meanCase(ci) - untraced.meanCase(ci)
	}
	out.SetSampled("trace.overhead_ms", over.Seconds()*1e3/float64(len(w.cases)), len(traced.samples))
	out.Set("trace.coverage", coverage(tr.Spans()))

	var coreCases []probeCase
	reps := 2
	if e == entryParallel {
		reps = 1
		for _, c := range cases {
			if c.own {
				coreCases = append(coreCases, c)
			}
		}
	} else {
		coreCases = largestPerRuleset(cases, coreBytes(o.Small))
	}
	counts := coreProbe(out, tr, coreCases, reps)
	coreTimings(out, tr.Spans())
	checkRecord(out, o, counts)

	in, err := newPapdInputs(o.Seed, o.Small)
	if err != nil {
		return err
	}
	if err := serverProbe(out, in, 0, serverRequests(o.Small)); err != nil {
		return err
	}
	return writeSpans(o, tr)
}

func runPapd(out *Output, o Options, d time.Duration) error {
	if err := papdBinary(o.Papd); err != nil {
		return err
	}
	in, err := newPapdInputs(o.Seed, o.Small)
	if err != nil {
		return err
	}
	w := &papdWorkload{in: in, bin: o.Papd, conns: papdConns}
	defer w.close()
	if err := w.setup(out, setupReps); err != nil {
		return err
	}
	if !o.Trace {
		st := w.load(out, nil, d)
		Reduce(st.samples, st.steal, false).Set(out)
		out.Set("ok_ratio", 1-safeDiv(float64(out.Failed), float64(out.Attempted)))
		out.Set("modelled_speedup", 1)
		if err := w.scrape(out); err != nil {
			return err
		}
		return w.inProcess(out)
	}

	tr := NewTracer()
	untraced := w.load(out, nil, time.Duration(float64(d)*(1-tracedShare)))
	traced := w.load(out, tr, time.Duration(float64(d)*tracedShare))
	out.SetSampled("trace.overhead_ms", (traced.mean()-untraced.mean()).Seconds()*1e3, len(traced.samples))
	out.Set("trace.coverage", coverage(tr.Spans()))
	if err := w.scrape(out); err != nil {
		return err
	}
	own, err := in.probeCase()
	if err != nil {
		return err
	}
	cases := []probeCase{own}
	extra, err := extraCases(o.Seed, o.Small, nil, true)
	if err != nil {
		return err
	}
	cases = append(cases, extra...)
	if _, err := libraryProbe(out, cases, false); err != nil {
		return err
	}
	counts := coreProbe(out, tr, largestPerRuleset([]probeCase{own}, coreBytes(o.Small)), 2)
	coreTimings(out, tr.Spans())
	checkRecord(out, o, counts)
	// The server probe's counters describe its in-process server; keep
	// the ones scraped from papd.
	rejected, batches := out.metrics["papd.rejected_total"], out.metrics["papd.batches_total"]
	if err := serverProbe(out, in, Summarize(untraced.matchLat).P50, serverRequests(o.Small)); err != nil {
		return err
	}
	out.Set("papd.rejected_total", rejected)
	out.Set("papd.batches_total", batches)
	return writeSpans(o, tr)
}

// coverage is the share of the operations' time (root spans) that the
// self times of the layer spans below them account for.
func coverage(spans []Span) float64 {
	var layers, ops time.Duration
	for name, d := range SelfTimes(spans) {
		if name != "op" {
			layers += d
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			ops += s.End - s.Start
		}
	}
	return safeDiv(layers.Seconds(), ops.Seconds())
}
