package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/traffic"
)

func TestCheckTrafficReportRejectsDoctoredReports(t *testing.T) {
	good := traffic.Report{Requests: 100, Completed: 90, Failed: 6, LocalHits: 4, Attempts: 99, P50: 1, P95: 2, P99: 3}
	if err := checkTrafficReport(&good); err != nil {
		t.Fatalf("consistent report rejected: %v", err)
	}
	for name, doctor := range map[string]func(*traffic.Report){
		"lost request":        func(r *traffic.Report) { r.Completed-- },
		"phantom completion":  func(r *traffic.Report) { r.Completed++ },
		"uncounted local hit": func(r *traffic.Report) { r.LocalHits++ },
		"too few attempts":    func(r *traffic.Report) { r.Attempts = r.Completed + r.Failed - 1 },
		"p95 above p99":       func(r *traffic.Report) { r.P95 = 4 },
		"p50 above p95":       func(r *traffic.Report) { r.P50 = 2.5 },
		"nothing dispatched":  func(r *traffic.Report) { *r = traffic.Report{} },
	} {
		r := good
		doctor(&r)
		if err := checkTrafficReport(&r); err == nil {
			t.Errorf("%s: doctored report %+v accepted", name, r)
		}
	}
}

// simOutcome runs one setup and repetition of a simulated workload.
func simOutcome(t *testing.T, w workload) outcome {
	t.Helper()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	out, err := w.rep(false)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Two runs with one seed agree on every simulated figure and counter; a
// different seed changes them, so the seed reaches the program's inputs.
func TestSimulatedWorkloadsAreSeedDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(seed int64) workload
	}{
		{"planet-popularity", func(seed int64) workload { return &planet{spec: planetSpec(seed, 2*time.Minute)} }},
		{"paper-select", func(seed int64) workload { return newPaperSelect(seed, 5*time.Minute) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b, c := simOutcome(t, tc.mk(7)), simOutcome(t, tc.mk(7)), simOutcome(t, tc.mk(8))
			if a.digest == "" {
				t.Fatal("simulated workload reports no outcome digest")
			}
			if a.digest != b.digest || fmt.Sprint(a.sim, a.counters) != fmt.Sprint(b.sim, b.counters) {
				t.Errorf("same seed, different outcomes:\n%v %v\n%v %v", a.sim, a.counters, b.sim, b.counters)
			}
			if a.digest == c.digest || fmt.Sprint(a.sim) == fmt.Sprint(c.sim) {
				t.Errorf("seeds 7 and 8 gave the same outcome %v", a.sim)
			}
		})
	}
}

func TestLoopbackVerifiesEveryGet(t *testing.T) {
	l := newLoopback(3, 1)
	defer l.close()
	if err := l.setup(); err != nil {
		t.Fatal(err)
	}
	out, err := l.rep(true)
	if err != nil {
		t.Fatal(err)
	}
	if want := (smallGroupsPerCycle + 1) * 4; out.ops != want {
		t.Errorf("one cycle ran %d transfers, want %d", out.ops, want)
	}
	if out.spans["gridftp.get_large_s"] <= 0 || out.spans["ftp.session_setup_s"] <= 0 {
		t.Errorf("traced repetition has empty spans: %v", out.spans)
	}
	// Expect different bytes than the server holds: the read-back check
	// must catch it.
	for i := range l.small {
		l.want[residentPath("small", i)] = l.small[(i+1)%len(l.small)]
	}
	if _, err := l.rep(false); err == nil || !strings.Contains(err.Error(), "differ") {
		t.Errorf("corrupted expectation not detected: %v", err)
	}
}

// fakeWorkload counts its calls; its digest can be made to drift.
type fakeWorkload struct {
	setups, reps int
	drift        bool
}

func (f *fakeWorkload) setup() error {
	f.setups++
	burn(time.Millisecond)
	return nil
}

func (f *fakeWorkload) rep(trace bool) (outcome, error) {
	f.reps++
	burn(2 * time.Millisecond)
	d := "same"
	if f.drift && f.reps > 1 {
		d = fmt.Sprint(f.reps)
	}
	out := outcome{ops: 10, digest: d, sim: []metric{{name: "sim_p50_s", unit: "s", value: 1, n: 10}}}
	if trace {
		out.spans = map[string]float64{"simxfer.submit_s": 0.5}
	}
	return out, nil
}

func TestMeasureReportsEveryMetric(t *testing.T) {
	f := &fakeWorkload{}
	res, err := measure(f, 10*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if f.reps < minReps || f.setups < minSetups {
		t.Errorf("ran %d reps and %d setups, want at least %d and %d", f.reps, f.setups, minReps, minSetups)
	}
	var buf bytes.Buffer
	if err := printJSON(&buf, true, res.attempted, res.failed, res.endToEnd); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]jsonMetric
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"setup_s", "ops_per_cpu_s", "allocs_per_op", "bytes_per_op", "peak_heap_mb"} {
		if m, ok := line.Metrics[name]; !ok || m.Unit == "" || m.Value <= 0 {
			t.Errorf("metric %s missing, unitless or not positive: %+v", name, m)
		}
	}
	if !line.Correct || line.Attempted != 10*f.reps {
		t.Errorf("result line %+v, want correct with %d attempted", line, 10*f.reps)
	}

	res, err = measure(&fakeWorkload{}, 10*time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, m := range res.perLayer {
		got[m.name] = m.value
	}
	if _, ok := got["trace_overhead_frac"]; !ok || got["simxfer.submit_s"] != 0.5 || len(got) != 2*len(layers)+1+len(counterNames)+len(spanNames)+1 {
		t.Errorf("per-layer table incomplete: %v", got)
	}
}

func TestMeasureRejectsDriftingOutcome(t *testing.T) {
	if _, err := measure(&fakeWorkload{drift: true}, 0, false); err == nil {
		t.Error("repetitions with different outcomes for the same inputs were accepted")
	}
}

func TestPrintJSONRejectsNonFinite(t *testing.T) {
	var buf bytes.Buffer
	if err := printJSON(&buf, true, 1, 0, []metric{{name: "x", unit: "s", value: 0 / zero}}); err == nil {
		t.Error("NaN metric printed")
	}
}

var zero float64
