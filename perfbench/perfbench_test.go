package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to about 120 overlay nodes and a 20-message
// window, keeping everything else.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.n, w.window = 60, 20
	return w
}

// lastLine decodes the JSON line that ends the benchmark's output.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res
}

// benchmarkFile is the part of BENCHMARK.json the self-test holds the
// program to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if s := endToEnd[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, s)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if s := perLayer[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, s)
		}
	}
}

// TestWorkloadsPrintEveryMetric runs each workload at tiny N, untraced
// and traced, and checks that the last line carries every named metric
// with its unit and reports a correct run.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := tiny(t, w.name), traced
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			var out bytes.Buffer
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			if err := execute(&out, w, 7, 30, traced, spans); err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, out.String())
			}
			res := lastLine(t, out.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < w.window {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics printed, %d named", w.name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				v, ok := res.Metrics[s.name]
				if !ok || v.Unit != s.unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (present %v), want unit %s", w.name, traced, s.name, v, ok, s.unit)
				}
				if !strings.Contains(out.String(), s.name) {
					t.Errorf("%s traced=%v: metric %s missing from the table", w.name, traced, s.name)
				}
			}
			if traced {
				if _, err := os.Stat(spans); err != nil {
					t.Errorf("%s: spans not written: %v", w.name, err)
				}
			}
		}
	}
}

// TestTracedSpansAddUpToMeasuredTime checks the traced phase's
// accounting on the churn workload, whose scheduled departures nest
// inside sends: the top-level spans, and separately all self times, add
// up to the measured driver time and cover the phase's process CPU
// time, and every kind the workload exercises was recorded.
func TestTracedSpansAddUpToMeasuredTime(t *testing.T) {
	w := tiny(t, "churn")
	r, _, err := setup(w)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runPhase(r, 3, 60, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 {
		t.Fatalf("phase failed: %v", p.problems)
	}
	if got := topLevelSum(p.spans); got != int64(p.busy) {
		t.Errorf("top-level spans sum to %d ns, measured driver time is %d ns", got, p.busy)
	}
	var self int64
	for i, s := range selfTimes(p.spans) {
		if !p.spans[i].kind.excluded() {
			self += s
		}
		if s < 0 {
			t.Errorf("span %d (%s) has negative self time %d", i, kindNames[p.spans[i].kind], s)
		}
	}
	if self != int64(p.busy) {
		t.Errorf("self times sum to %d ns, measured driver time is %d ns", self, p.busy)
	}
	if err := checkSpanCover(p); err != nil {
		t.Error(err)
	}
	totals := summarize(p.spans)
	for _, k := range []spanKind{kindSend, kindRun, kindChurn, kindRebalance, kindDriver, kindRouteReplay, kindTreeReplay, kindCheck} {
		if totals.count[k] == 0 {
			t.Errorf("no %s spans recorded", kindNames[k])
		}
	}
	if totals.count[kindSend] != p.all.Sent {
		t.Errorf("%d send spans for %d messages", totals.count[kindSend], p.all.Sent)
	}
}

// TestSpanCoverCheck feeds the span-cover check phases whose top-level
// spans leave too much of the process CPU time uncovered or claim more
// than the process used.
func TestSpanCoverCheck(t *testing.T) {
	const ms = int64(time.Millisecond)
	spans := []span{
		{kind: kindSend, parent: -1, start: 0, end: 80 * ms},
		{kind: kindRouteReplay, parent: -1, start: 80 * ms, end: 500 * ms},
		{kind: kindRun, parent: -1, start: 500 * ms, end: 600 * ms},
		{kind: kindPublish, parent: 2, start: 510 * ms, end: 520 * ms},
	}
	for _, c := range []struct {
		cpu time.Duration
		ok  bool
	}{
		{180 * time.Millisecond, true},
		{179 * time.Millisecond, true},
		{178 * time.Millisecond, false},
		{211 * time.Millisecond, true},
		{212 * time.Millisecond, false},
	} {
		err := checkSpanCover(&phase{spans: spans, cpu: c.cpu})
		if (err == nil) != c.ok {
			t.Errorf("spans covering 180ms, process CPU %v: got %v, want ok=%v", c.cpu, err, c.ok)
		}
	}
}
