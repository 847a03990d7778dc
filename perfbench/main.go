// Command perfbench is the repository's benchmark. It runs one workload
// against the program's public entry points for a fixed time, checks the
// outputs, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also profiles one repetition and the metrics are the per-layer cost
// table. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload planet-popularity --seed 1 --seconds 20 --trace 0
//
// README.md beside this file describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// A workload drives one system under test. setup builds it up to its
// first request and is timed as set-up; rep drives one fixed unit of
// load against the most recent setup. Every repetition sees the same
// inputs, so a simulated workload's outcome must not change between them.
type workload interface {
	setup() error
	rep(trace bool) (outcome, error)
}

// outcome is what one repetition observed.
type outcome struct {
	ops    int // requests, fetches or transfers completed or failed
	failed int // operations the program reported as failed
	// digest identifies the simulated outcome; equal inputs must give an
	// equal digest. Empty for workloads with host-timed results.
	digest string
	// sim holds the simulated workloads' own figures: virtual latency,
	// goodput and failure share. pooled holds host-timed samples, pooled
	// over all repetitions before each set's quantile is taken.
	sim    []metric
	pooled []sampleSet
	// counters are per-layer work counts; spans are per-layer host
	// seconds, filled only when traced.
	counters map[string]float64
	spans    map[string]float64
}

// sampleSet is a named sample reported as its q-quantile.
type sampleSet struct {
	name, unit string
	q          float64
	vals       []float64
}

// metric is one reported figure. n is how many samples it summarizes;
// q1 and q3 are the quartiles across repetitions when value is their
// median.
type metric struct {
	name, unit string
	value      float64
	n          int
	q1, q3     float64
}

const (
	// minSetups is how many times set-up is timed in a run at least; more
	// follow, up to maxSetups, until set-up time reaches setupBudget.
	minSetups   = 5
	maxSetups   = 100
	setupBudget = time.Second
	// minReps is how many repetitions a run measures at least.
	minReps = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1: print the per-layer cost table instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "# machine: %s\n", machineLabel())
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	res, err := measure(w, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if c, ok := w.(interface{ close() error }); ok {
		if cerr := c.close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: FAILED:", err)
		if jerr := printJSON(stdout, false, res.attempted, res.failed, nil); jerr != nil {
			fmt.Fprintln(stderr, "perfbench:", jerr)
		}
		return 1
	}
	fmt.Fprintf(stdout, "# ops_per_cpu_s by repetition: %s\n", strings.Join(res.repRates, " "))
	printTable(stdout, "end-to-end", res.endToEnd)
	printTable(stdout, "wall clock and workload figures (not in the JSON line)", res.sim)
	out := res.endToEnd
	if *trace == 1 {
		printTable(stdout, "per-layer (one profiled repetition)", res.perLayer)
		fmt.Fprintf(stdout, "# profile covers %.1f%% of process CPU time (%.3f of %.3f s)\n",
			100*res.profiled/res.processCPU, res.profiled, res.processCPU)
		out = res.perLayer
	}
	if err := printJSON(stdout, true, res.attempted, res.failed, out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

var workloadNames = []string{"planet-popularity", "paper-select", "gridftp-loopback"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "planet-popularity":
		return newPlanet(), nil
	case "paper-select":
		return newPaperSelect(seed, 90*time.Minute), nil
	case "gridftp-loopback":
		return newLoopback(seed, 4), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// result is one run's report.
type result struct {
	attempted, failed int
	repRates          []string // ops_per_cpu_s of each repetition, in run order
	endToEnd, sim     []metric
	perLayer          []metric
	// profiled is the CPU seconds the profile attributed; processCPU the
	// process's CPU seconds over the same repetition.
	profiled, processCPU float64
}

// repStats is one measured repetition.
type repStats struct {
	out      outcome
	wall     time.Duration
	cpu      time.Duration // process CPU time, all threads
	mallocs  uint64
	bytes    uint64
	peakHeap uint64
}

// measure times set-up and repetitions until the budget is spent, then,
// when traced, profiles one more repetition. Half the budget goes to the
// untraced repetitions of a traced run; their median is the baseline the
// tracing overhead is measured against.
//
// The gated rate and set-up time are in process CPU time; wall-clock
// figures are printed beside them. On a shared virtual machine the host
// can take the guest's CPUs away (steal time), which stretches wall time
// while the program's work is unchanged: on a 2-vCPU Xeon guest one such
// episode halved wall-clock rates for minutes. CPU time excludes it.
func measure(w workload, budget time.Duration, trace bool) (result, error) {
	if trace {
		budget /= 2
	}
	var (
		setups, setupWalls []float64
		reps               []repStats
		res                result
	)
	setup := func() error {
		// Collect the previous repetition's garbage so it is not charged
		// to this set-up.
		runtime.GC()
		c0, err := processCPU()
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		wall := time.Since(t0)
		c1, err := processCPU()
		if err != nil {
			return err
		}
		setups = append(setups, (c1 - c0).Seconds())
		setupWalls = append(setupWalls, wall.Seconds())
		return nil
	}
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		if err := setup(); err != nil {
			return res, err
		}
		r, err := measureRep(w, false)
		if err != nil {
			return res, err
		}
		if len(reps) > 0 && r.out.digest != reps[0].out.digest {
			return res, fmt.Errorf("repetition %d: outcome %s differs from the first repetition's %s with the same inputs",
				len(reps), r.out.digest, reps[0].out.digest)
		}
		reps = append(reps, r)
		res.attempted += r.out.ops
		res.failed += r.out.failed
		if p, ok := w.(interface{ maxRate() float64 }); ok {
			time.Sleep(time.Until(start.Add(time.Duration(float64(res.attempted) / p.maxRate() * float64(time.Second)))))
		}
	}
	// Cheap set-ups are repeated until they add up to setupBudget, so
	// their median does not rest on a handful of millisecond samples.
	for spent := 0.0; len(setups) < minSetups || (spent < setupBudget.Seconds() && len(setups) < maxSetups); {
		if err := setup(); err != nil {
			return res, err
		}
		spent += setups[len(setups)-1]
	}

	perRep := func(f func(repStats) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	opsPerCPU := perRep(func(r repStats) float64 { return float64(r.out.ops) / r.cpu.Seconds() })
	opsPerWall := perRep(func(r repStats) float64 { return float64(r.out.ops) / r.wall.Seconds() })
	for _, v := range opsPerCPU {
		res.repRates = append(res.repRates, fmt.Sprintf("%.4g", v))
	}
	res.endToEnd = []metric{
		summarize("setup_s", "s", setups, len(setups)),
		summarize("ops_per_cpu_s", "1/s", opsPerCPU, len(reps)),
		summarize("allocs_per_op", "count", perRep(func(r repStats) float64 { return float64(r.mallocs) / float64(r.out.ops) }), len(reps)),
		summarize("bytes_per_op", "B", perRep(func(r repStats) float64 { return float64(r.bytes) / float64(r.out.ops) }), len(reps)),
		summarize("peak_heap_mb", "MB", perRep(func(r repStats) float64 { return float64(r.peakHeap) / 1e6 }), len(reps)),
	}
	res.sim = []metric{
		summarize("setup_wall_s", "s", setupWalls, len(setupWalls)),
		summarize("ops_per_wall_s", "1/s", opsPerWall, len(reps)),
	}
	for i, m := range reps[0].out.sim {
		vals := perRep(func(r repStats) float64 { return r.out.sim[i].value })
		res.sim = append(res.sim, summarize(m.name, m.unit, vals, m.n))
	}
	for i, set := range reps[0].out.pooled {
		var all []float64
		for _, r := range reps {
			all = append(all, r.out.pooled[i].vals...)
		}
		res.sim = append(res.sim, metric{name: set.name, unit: set.unit, value: percentile(all, set.q), n: len(all)})
	}
	if !trace {
		return res, nil
	}

	if err := setup(); err != nil {
		return res, err
	}
	prof, err := startProfiler()
	if err != nil {
		return res, err
	}
	r, err := measureRep(w, true)
	cost, perr := prof.stop()
	if err != nil {
		return res, err
	}
	if perr != nil {
		return res, perr
	}
	if r.out.digest != reps[0].out.digest {
		return res, fmt.Errorf("profiled repetition: outcome %s differs from the untraced repetitions' %s", r.out.digest, reps[0].out.digest)
	}
	res.attempted += r.out.ops
	res.failed += r.out.failed
	res.perLayer = layerTable(cost, r, median(opsPerCPU))
	res.processCPU = cost.processCPU
	for _, v := range cost.cpuS {
		res.profiled += v
	}
	return res, nil
}

// measureRep runs one repetition, recording its CPU and wall time,
// allocations and peak heap.
func measureRep(w workload, trace bool) (repStats, error) {
	// Collect the previous repetition's garbage so the peak is this one's.
	runtime.GC()
	peak := startHeapSampler()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, err := processCPU()
	if err != nil {
		return repStats{}, err
	}
	t0 := time.Now()
	out, err := w.rep(trace)
	wall := time.Since(t0)
	c1, cerr := processCPU()
	runtime.ReadMemStats(&m1)
	p := peak()
	if err != nil {
		return repStats{}, err
	}
	if cerr != nil {
		return repStats{}, cerr
	}
	if out.ops <= 0 {
		return repStats{}, errors.New("repetition completed no operations")
	}
	if c1 <= c0 {
		return repStats{}, errors.New("repetition used no measurable CPU time")
	}
	return repStats{
		out:      out,
		wall:     wall,
		cpu:      c1 - c0,
		mallocs:  m1.Mallocs - m0.Mallocs,
		bytes:    m1.TotalAlloc - m0.TotalAlloc,
		peakHeap: p,
	}, nil
}

// startHeapSampler polls the live heap, as the last garbage collection
// measured it, until the returned function is called; that function
// returns the largest value seen. The live heap is what the program
// retains, such as route trees; the total heap also holds garbage
// awaiting collection, whose amount depends on collector timing.
func startHeapSampler() func() uint64 {
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-done
	}
}

// summarize reports the median of per-repetition values with their
// quartiles.
func summarize(name, unit string, vals []float64, n int) metric {
	q1, q3 := quartiles(vals)
	return metric{name: name, unit: unit, value: median(vals), n: n, q1: q1, q3: q3}
}

// layerTable builds the per-layer metrics of the profiled repetition:
// CPU seconds and allocated MB per bucket, the workload's counters and
// spans, and the tracing overhead against the untraced median.
func layerTable(cost layerCost, r repStats, untracedOpsPerCPU float64) []metric {
	var out []metric
	for _, l := range layers {
		out = append(out,
			metric{name: l + ".cpu_s", unit: "s", value: cost.cpuS[l]},
			metric{name: l + ".alloc_mb", unit: "MB", value: cost.allocMB[l]})
	}
	out = append(out, metric{name: "process.cpu_s", unit: "s", value: cost.processCPU})
	for _, name := range counterNames {
		out = append(out, metric{name: name, unit: "count", value: r.out.counters[name], n: r.out.ops})
	}
	for _, name := range spanNames {
		out = append(out, metric{name: name, unit: "s", value: r.out.spans[name], n: r.out.ops})
	}
	traced := float64(r.out.ops) / r.cpu.Seconds()
	out = append(out, metric{name: "trace_overhead_frac", unit: "frac", value: 1 - traced/untracedOpsPerCPU})
	return out
}

// counterNames and spanNames fix the order of the per-layer table; a
// workload that has no such counter or span reports 0.
var (
	counterNames = []string{
		"core.selections", "core.hosts_per_selection", "simxfer.attempts_per_request",
		"traffic.local_hits", "placement.replications", "placement.removals",
		"gridstate.rebuilds_per_fetch", "nws.probes", "mds.giis_queries", "simulation.events_per_op",
	}
	spanNames = []string{
		"core.fetch_self_s", "simxfer.submit_s", "simulation.run_s",
		"gridftp.get_small_s", "gridftp.put_small_s", "gridftp.get_large_s", "gridftp.put_large_s",
		"ftp.session_setup_s",
	}
)

func printTable(w io.Writer, title string, ms []metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "#   %-30s %16s %-6s %8s %16s %16s\n", "metric", "value", "unit", "n", "q1", "q3")
	for _, m := range ms {
		q := fmt.Sprintf("%16s %16s", "-", "-")
		if m.q1 != 0 || m.q3 != 0 {
			q = fmt.Sprintf("%16.6g %16.6g", m.q1, m.q3)
		}
		fmt.Fprintf(w, "#   %-30s %16.6g %-6s %8d %s\n", m.name, m.value, m.unit, m.n, q)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printJSON writes the result line. Values keep every digit; a value that
// is not a finite number is an error, not a silent zero.
func printJSON(w io.Writer, correct bool, attempted, failed int, ms []metric) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, attempted, failed, make(map[string]jsonMetric, len(ms))}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// machineLabel names the hardware and toolchain the figures come from.
func machineLabel() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}
