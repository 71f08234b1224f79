package main

import (
	"fmt"
	"io"
	"sort"
)

// Rulesets are the ANMLZoo-style rulesets of the library workloads, by
// their internal/workloads names.
var Rulesets = []string{"Snort", "Bro217", "ClamAV", "Dotstar09"}

// EngineKinds are the engine.<kind>.mbps probes, by engine.ParseKind name.
var EngineKinds = []string{"sparse", "bit", "lazydfa", "meta", "auto"}

// EndToEnd lists every end-to-end metric with its unit; an untraced run
// reports all of them.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"setup_heap_mb", "MB"},
	{"mbps", "MB/s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"alloc_b_per_byte", "B/byte"},
	{"modelled_speedup", "x_modelled"},
}

// PerLayer lists every per-layer metric with its unit; a traced run
// reports all of them.
var PerLayer = func() []MetricDef {
	defs := []MetricDef{
		{"anml.decode_s", "s"},
		{"engine.tables_s", "s"},
		{"prefilter.build_s", "s"},
		{"regex.compile_s", "s"},
		{"nfa.states", "count"},
		{"server.register_s", "s"},
	}
	for _, k := range EngineKinds {
		defs = append(defs, MetricDef{"engine." + k + ".mbps", "MB/s"})
	}
	for _, r := range Rulesets {
		defs = append(defs, MetricDef{"engine.auto.mbps." + r, "MB/s"})
	}
	return append(defs, []MetricDef{
		{"engine.run_share", "ratio"},
		{"engine.dedupe_s", "s"},
		{"prefilter.skip_ratio", "ratio"},
		{"engine.baseline_skip_ratio", "ratio"},
		{"lazydfa.hit_ratio", "ratio"},
		{"lazydfa.evictions", "count"},
		{"lazydfa.fellback", "count"},
		{"core.plan_s", "s"},
		{"core.golden_s", "s"},
		{"core.enumerate_s", "s"},
		{"core.avg_active_flows", "count_modelled"},
		{"core.convergences", "count_modelled"},
		{"core.deactivations", "count_modelled"},
		{"core.fiv_kills", "count_modelled"},
		{"core.transition_ratio", "ratio_modelled"},
		{"core.report_increase", "ratio_modelled"},
		{"ap.baseline_cycles", "cycles_modelled"},
		{"ap.pap_cycles", "cycles_modelled"},
		{"ap.switch_overhead_pct", "%_modelled"},
		{"ap.host_cycles_avg", "cycles_modelled"},
		{"server.handler_p50_ms.match", "ms"},
		{"server.handler_p99_ms.match", "ms"},
		{"server.handler_p50_ms.stream_write", "ms"},
		{"server.handler_p99_ms.stream_write", "ms"},
		{"server.http_overhead_ms", "ms"},
		{"server.pool_do_us", "us"},
		{"server.engine_share", "ratio"},
		{"papd.rejected_total", "count"},
		{"papd.batches_total", "count"},
		{"trace.overhead_ms", "ms"},
		{"trace.coverage", "ratio"},
	}...)
}()

// MetricDef names a metric and its unit.
type MetricDef struct {
	Name, Unit string
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Output collects one run's figures.
type Output struct {
	Attempted int
	Failed    int
	Gate      Gate
	metrics   map[string]float64
	samples   map[string]int
	engines   map[string]map[string]float64 // ruleset -> kind -> MB/s
	notes     []string
}

// Note adds a line to the run's human-readable report.
func (o *Output) Note(s string) { o.notes = append(o.notes, s) }

func newOutput() *Output {
	return &Output{metrics: make(map[string]float64), samples: make(map[string]int)}
}

// Set records a metric value.
func (o *Output) Set(name string, v float64) { o.metrics[name] = v }

// SetSampled records a metric value taken from n samples.
func (o *Output) SetSampled(name string, v float64, n int) {
	o.metrics[name] = v
	o.samples[name] = n
}

// EngineTable records one engine kind's throughput on one ruleset.
func (o *Output) EngineTable(ruleset, kind string, mbps float64) {
	if o.engines == nil {
		o.engines = make(map[string]map[string]float64)
	}
	if o.engines[ruleset] == nil {
		o.engines[ruleset] = make(map[string]float64)
	}
	o.engines[ruleset][kind] = mbps
}

// WriteEngineTable prints MB/s by ruleset and engine kind, with the
// default kind's share of the best kind's speed.
func (o *Output) WriteEngineTable(w io.Writer) {
	if len(o.engines) == 0 {
		return
	}
	fmt.Fprintf(w, "%-10s", "MB/s")
	for _, k := range EngineKinds {
		fmt.Fprintf(w, " %9s", k)
	}
	fmt.Fprintf(w, " %12s\n", "auto/best")
	names := make([]string, 0, len(o.engines))
	for r := range o.engines {
		names = append(names, r)
	}
	sort.Strings(names)
	for _, r := range names {
		fmt.Fprintf(w, "%-10s", r)
		best := 0.0
		for _, k := range EngineKinds {
			v := o.engines[r][k]
			best = max(best, v)
			fmt.Fprintf(w, " %9.3g", v)
		}
		fmt.Fprintf(w, " %12.2f\n", safeDiv(o.engines[r]["auto"], best))
	}
}

// Select returns the metrics of defs, failing if any was not measured.
func (o *Output) Select(defs []MetricDef) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}

// WriteTable prints one line per metric: name, value, unit and, for
// percentiles and medians, the sample count.
func (o *Output) WriteTable(w io.Writer, defs []MetricDef) {
	names := make([]string, 0, len(defs))
	unit := map[string]string{}
	for _, d := range defs {
		names = append(names, d.Name)
		unit[d.Name] = d.Unit
	}
	sort.Strings(names)
	for _, n := range names {
		v, ok := o.metrics[n]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-36s %16.6g %s", n, v, unit[n])
		if s, ok := o.samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", s)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
}
