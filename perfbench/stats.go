package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Summary is a set of per-operation latencies reduced to the figures the
// benchmark reports. Every percentile is reported together with the number
// of samples it was taken from.
type Summary struct {
	N   int
	P50 float64 // milliseconds
	P99 float64 // milliseconds
}

// Percentile returns the q-th percentile (0..1) of sorted values by linear
// interpolation between closest ranks. It returns NaN for no values.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// Summarize sorts a copy of the durations and reports p50 and p99 in ms.
func Summarize(ds []time.Duration) Summary {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	return Summary{N: len(ms), P50: Percentile(ms, 0.5), P99: Percentile(ms, 0.99)}
}

// Median returns the median of values (NaN when empty).
func Median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return Percentile(s, 0.5)
}

// MedianDuration returns the median of ds in seconds.
func MedianDuration(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = d.Seconds()
	}
	return Median(v)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Sample is one timed call: which block of the phase it belongs to, when
// it started, how long it took and how many input bytes it matched.
type Sample struct {
	Block   int
	At, Dur time.Duration
	Bytes   int
}

// Figures are the end-to-end figures of a measuring phase. The phase is
// cut into blocks — one round over every input for the library workloads,
// a fixed run of the request sequence for papd — so every block does the
// same work.
//
// On a virtual machine the hypervisor steals CPU time, and how much it
// steals swings with the neighbours' load: on a 2-vCPU development
// machine from 0.3% to 34% of CPU time between runs, with block
// throughput falling in step. So each block also records the CPU time
// stolen from the guest during it (/proc/stat). Rates are read off a
// robust line (Theil–Sen: the median of pairwise slopes) through the
// blocks' (steal rate, rate) points, at zero steal; with no steal
// measured the line is flat and the rate is the median over blocks.
// Latency percentiles are taken over the calls of the blocks with the
// least steal (at least a quarter of them, and 1,000 calls) and scaled by those blocks' rate over the rate at
// zero steal; a block's own p99 jumps with single stalls, so it is not
// extrapolated itself.
type Figures struct {
	MBps, OpsPerS, P50, P99 float64
	Blocks, Calls           int     // blocks and calls the rates come from
	PctCalls                int     // calls the percentiles come from
	Stolen                  float64 // share of the phase's CPU time stolen
}

// Reduce computes Figures over the complete blocks of samples: the last
// block is dropped when the phase ended inside it, unless it is the only
// one. With busy, rates divide by the summed call time of the block (one
// caller, calls back to back); otherwise by the block's wall-clock span.
// steal gives each block's stolen CPU time (nil: none measured).
func Reduce(samples []Sample, steal *StealMeter, busy bool) Figures {
	last := 0
	for _, s := range samples {
		last = max(last, s.Block)
	}
	per := make([][]Sample, last+1)
	for _, s := range samples {
		per[s.Block] = append(per[s.Block], s)
	}
	if len(per) > 1 {
		per = per[:len(per)-1]
	}
	var x, mbps, ops []float64
	var lat [][]time.Duration
	var stolen int64
	calls := 0
	var span time.Duration
	for b, ss := range per {
		if len(ss) == 0 {
			continue
		}
		var bytes int
		var busyTime time.Duration
		first, end := ss[0].At, ss[0].At+ss[0].Dur
		ds := make([]time.Duration, len(ss))
		for i, s := range ss {
			bytes += s.Bytes
			busyTime += s.Dur
			first, end = min(first, s.At), max(end, s.At+s.Dur)
			ds[i] = s.Dur
		}
		denom := (end - first).Seconds()
		if busy {
			denom = busyTime.Seconds()
		}
		st := steal.Stolen(b)
		x = append(x, safeDiv(float64(st), (end-first).Seconds()))
		mbps = append(mbps, float64(bytes)/1e6/denom)
		ops = append(ops, float64(len(ss))/denom)
		lat = append(lat, ds)
		calls += len(ds)
		stolen += st
		span += end - first
	}
	// Percentiles pool the calls of the blocks with the least steal: every
	// block with none, and at least a quarter of the blocks holding at
	// least minPctCalls calls, so that p99 has ten calls beyond it. They
	// are scaled by how much slower those blocks ran than the zero-steal
	// rate.
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return x[order[a]] < x[order[b]] })
	var kept []time.Duration
	var keptOps []float64
	for k, i := range order {
		if x[i] > 0 && k >= (len(x)+3)/4 && len(kept) >= minPctCalls {
			break
		}
		kept = append(kept, lat[i]...)
		keptOps = append(keptOps, ops[i])
	}
	sum := Summarize(kept)
	opsAtZero := AtZero(x, ops)
	// Steal never speeds a call up, so the scale never exceeds 1.
	scale := 1.0
	if opsAtZero > 0 {
		scale = min(1, Median(keptOps)/opsAtZero)
	}
	return Figures{MBps: AtZero(x, mbps), OpsPerS: opsAtZero, P50: sum.P50 * scale, P99: sum.P99 * scale,
		Blocks: len(x), Calls: calls, PctCalls: sum.N,
		Stolen: safeDiv(float64(stolen)/ticksPerSecond, span.Seconds()*float64(runtime.NumCPU()))}
}

// AtZero fits y = a + b·x by Theil–Sen — b is the median of the slopes
// between all pairs of points with distinct x, a the median of y − b·x —
// and returns a, the fitted y at x = 0. Outlying points move it little.
func AtZero(x, y []float64) float64 {
	var slopes []float64
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			if x[j] != x[i] {
				slopes = append(slopes, (y[j]-y[i])/(x[j]-x[i]))
			}
		}
	}
	b := 0.0
	if len(slopes) > 0 {
		b = Median(slopes)
	}
	r := make([]float64, len(y))
	for i := range y {
		r[i] = y[i] - b*x[i]
	}
	return Median(r)
}

// Set reports the figures as the end-to-end metrics.
func (f Figures) Set(out *Output) {
	out.SetSampled("mbps", f.MBps, f.Calls)
	out.SetSampled("ops_per_s", f.OpsPerS, f.Calls)
	out.SetSampled("p50_ms", f.P50, f.PctCalls)
	out.SetSampled("p99_ms", f.P99, f.PctCalls)
	out.Note(fmt.Sprintf("%d blocks; %.1f%% of CPU time stolen by the hypervisor; rates read at zero steal, percentiles over the %d calls of the least-stolen blocks",
		f.Blocks, 100*f.Stolen, f.PctCalls))
}

// minPctCalls is the fewest calls the percentiles are taken over.
const minPctCalls = 1000

// ticksPerSecond is the USER_HZ clock /proc/stat counts in.
const ticksPerSecond = 100

// StealMeter reads the CPU time the hypervisor stole (the "steal" column
// of /proc/stat, summed over CPUs) at block boundaries. A nil meter, or a
// machine without the column, reads no steal.
type StealMeter struct {
	mu    sync.Mutex
	marks map[int]int64
}

// Mark records the reading at the start of block b (and the end of b-1).
func (m *StealMeter) Mark(b int) {
	v, ok := readSteal()
	if !ok {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.marks == nil {
		m.marks = make(map[int]int64)
	}
	if _, seen := m.marks[b]; !seen {
		m.marks[b] = v
	}
}

// Stolen is the steal in ticks during block b, 0 when not measured.
func (m *StealMeter) Stolen(b int) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	start, ok1 := m.marks[b]
	end, ok2 := m.marks[b+1]
	if !ok1 || !ok2 {
		return 0
	}
	return end - start
}

func readSteal() (int64, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	return v, err == nil
}
