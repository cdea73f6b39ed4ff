// Command perfbench is the repository's benchmark: it drives
// core.CompactSystem through its public calls on one of two workloads,
// checks every output, and prints end-to-end metrics (tracing off) or
// per-layer metrics (tracing on) as one JSON line. See README.md.
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"time"
)

// setupRuns is how many times a run sets its workload up; setup_s is
// the median.
const setupRuns = 5

// treeReplays bounds the traced run's TreeOf replays: each is a full
// BFS, which at route-cold's size costs milliseconds.
const treeReplays = 200

// result is the benchmark's output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// Not printed in the JSON line.
	summary []string
	spans   []span
}

func main() {
	name := flag.String("workload", "", "workload: route-cold or churn")
	seed := flag.Uint64("seed", 1, "generator seed for traffic pairs and churn schedule")
	seconds := flag.Int("seconds", 10, "measured host time per run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	err := func() error {
		if err := checkCPUClocks(); err != nil {
			return err
		}
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		if *seconds < 1 || *trace != 0 && *trace != 1 {
			return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
		}
		spans := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		return execute(os.Stdout, w, *seed, w.messages(*seconds), *trace == 1, spans)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs count messages of workload w and prints its metric
// table and JSON line. A traced run also writes its spans to spanPath.
// It returns an error, after printing, when any call or output check
// failed.
func execute(stdout io.Writer, w workload, seed uint64, count int, traced bool, spanPath string) error {
	if count < w.window {
		return fmt.Errorf("%d messages is fewer than the %d the determinism check compares", count, w.window)
	}
	var res *result
	var err error
	if traced {
		res, err = tracedRun(w, seed, count)
	} else {
		res, err = plainRun(w, seed, count)
	}
	if err != nil {
		return err
	}
	if traced {
		if err := writeSpans(spanPath, res.spans); err != nil {
			return err
		}
		res.summary = append(res.summary, "spans written to "+spanPath)
	}
	out := bufio.NewWriter(stdout)
	for _, line := range res.summary {
		fmt.Fprintln(out, line)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	out.Write(line)
	out.WriteString("\n")
	if err := out.Flush(); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// plainRun is the untraced run. It sets the workload up setupRuns
// times, each from a collected heap: the first system runs the
// workload's leading window of messages as the reference for the
// determinism check, the middle ones are only timed, and the last —
// after the peak-RSS mark is reset — runs the measured phase of count
// messages.
func plainRun(w workload, seed uint64, count int) (*result, error) {
	setups := make([]time.Duration, 0, setupRuns)
	var ref *phase
	for i := 0; i < setupRuns-1; i++ {
		releaseMemory()
		r, d, err := setup(w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		if i == 0 {
			if ref, err = runPhase(r, seed, w.window, false, 0); err != nil {
				return nil, err
			}
		}
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	r, d, err := setup(w)
	if err != nil {
		return nil, err
	}
	setups = append(setups, d)
	p, err := runPhase(r, seed, count, false, 0)
	if err != nil {
		return nil, err
	}
	peak, err := peakRSS()
	if err != nil {
		return nil, err
	}
	res := newResult(p, ref, p.window, ref.window, w.window)
	vals := endToEndMetrics(p, setups, peak)
	if res.Metrics, err = report(endToEnd, vals); err != nil {
		return nil, err
	}
	res.summary = append(res.summary,
		fmt.Sprintf("%s seed %d: %d msgs in %.3f CPU-s measured; send latency over %d samples; set-ups %v",
			w.name, seed, p.all.Sent, p.cpu.Seconds(), len(p.sendNs), setups))
	res.summary = append(res.summary, describe(endToEnd, res.Metrics)...)
	return res, nil
}

// tracedRun runs the untraced phase, then the traced phase over the same
// messages on a fresh system, compares the two for the determinism
// check, and checks that the traced phase's spans cover its measured
// time.
func tracedRun(w workload, seed uint64, count int) (*result, error) {
	plain, err := func() (*phase, error) {
		r, _, err := setup(w)
		if err != nil {
			return nil, err
		}
		return runPhase(r, seed, count, false, 0)
	}()
	if err != nil {
		return nil, err
	}
	releaseMemory()
	r, _, err := setup(w)
	if err != nil {
		return nil, err
	}
	p, err := runPhase(r, seed, count, true, max(1, count/treeReplays))
	if err != nil {
		return nil, err
	}
	res := newResult(p, plain, p.all, plain.all, count)
	res.Attempted++
	if err := checkSpanCover(p); err != nil {
		res.Correct = false
		res.Failed++
		res.summary = append(res.summary, "CHECK FAILED: "+err.Error())
	}
	vals := perLayerMetrics(p, plain)
	if res.Metrics, err = report(perLayer, vals); err != nil {
		return nil, err
	}
	res.spans = p.spans
	res.summary = append(res.summary,
		fmt.Sprintf("%s seed %d traced: %d msgs, %d spans, measured driver time %.3f CPU-s of %.3f process CPU-s (%.3fs elapsed with replays and checks)",
			w.name, seed, p.all.Sent, len(p.spans), p.busy.Seconds(), p.cpu.Seconds(), p.elapsed.Seconds()))
	res.summary = append(res.summary, describe(perLayer, res.Metrics)...)
	return res, nil
}

// The traced phase's top-level spans time the driver's thread. The rest
// of the process CPU time is the runtime's other threads, mostly
// background garbage collection, which no span can hold. It may be at
// most uncoveredShare of the phase's process CPU time plus
// uncoveredFixed, which absorbs the background work that does not grow
// with the phase (the scavenger, the end of a collection begun before
// it) and only matters for phases of a few milliseconds.
const (
	uncoveredShare = 0.1
	uncoveredFixed = 10 * time.Millisecond
)

// checkSpanCover checks the traced phase's top-level spans against the
// process CPU time its msgs_per_s divides by: they may not claim more
// than the process used (beyond a millisecond for reading the two
// clocks at different instants), nor leave more of it uncovered than
// the allowance above.
func checkSpanCover(p *phase) error {
	top := time.Duration(topLevelSum(p.spans))
	uncovered := p.cpu - top
	if uncovered < -time.Millisecond || float64(uncovered) > uncoveredShare*float64(p.cpu)+float64(uncoveredFixed) {
		return fmt.Errorf("top-level spans sum to %v, process CPU time of the phase is %v", top, p.cpu)
	}
	return nil
}

// newResult builds the output line's counts for measured phase p and
// runs the determinism check — the n messages whose outcome counts are
// got must repeat those of another run at the same seed, want — which
// counts as one more attempted operation.
func newResult(p, ref *phase, got, want counts, n int) *result {
	res := &result{Correct: p.failed == 0 && ref.failed == 0, Attempted: p.attempted + 1, Failed: p.failed}
	for _, s := range append(append([]string{}, ref.problems...), p.problems...) {
		res.summary = append(res.summary, "CHECK FAILED: "+s)
	}
	if got != want {
		res.Correct = false
		res.Failed++
		res.summary = append(res.summary, fmt.Sprintf("CHECK FAILED: %d messages differ between two runs at one seed: %+v vs %+v",
			n, want, got))
	}
	res.summary = append(res.summary, fmt.Sprintf("outcome counts: %+v", p.all))
	return res
}

// describe renders metrics one per line, in spec order.
func describe(specs []metricSpec, vals map[string]value) []string {
	out := make([]string, 0, len(specs))
	for _, s := range specs {
		out = append(out, fmt.Sprintf("  %-36s %14.4f %s", s.name, vals[s.name].Value, s.unit))
	}
	return out
}

// releaseMemory collects garbage and returns freed pages to the OS.
func releaseMemory() { debug.FreeOSMemory() }

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// peak-RSS mark (VmHWM) to the current resident set, so a later
// peakRSS reads the peak of what runs after it alone.
func resetPeakRSS() error {
	releaseMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads VmHWM, the peak resident set since the last reset, in
// bytes.
func peakRSS() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) != 2 || string(f[1]) != "kB" {
				break
			}
			kb, err := strconv.ParseInt(string(f[0]), 10, 64)
			if err != nil {
				break
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line in /proc/self/status")
}
