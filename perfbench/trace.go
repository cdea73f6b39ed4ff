package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// spanKind names the public call (or the driver's own work) a span
// covers.
type spanKind uint8

const (
	kindSend spanKind = iota
	kindRun
	kindPublish
	kindChurn
	kindRebalance
	kindDriver
	// The kinds below are excluded from the measured time: two
	// read-only calls replayed for per-layer timing, and output checks.
	kindRouteReplay
	kindTreeReplay
	kindCheck
	numKinds
)

var kindNames = [numKinds]string{
	"send", "run", "publish", "churn", "rebalance", "driver",
	"route_replay", "tree_replay", "check",
}

// excluded reports whether time in spans of kind k is left out of the
// measured time.
func (k spanKind) excluded() bool { return k >= kindRouteReplay }

// span is one recorded call. Times are nanoseconds of driver-thread CPU
// time from the start of the phase; parent is -1 for a top-level span.
type span struct {
	kind       spanKind
	parent     int32
	msg        int32
	start, end int64
	allocs     uint64
	allocBytes uint64
}

// clock times the calls of one phase in CPU time of the driver's OS
// thread, so its goroutine must stay locked to that thread. With tracing
// off it only sums the excluded time and returns each call's duration;
// with tracing on it also records a span per call (and per gap between
// top-level calls, as driver time), reading runtime.MemStats around each
// call.
type clock struct {
	traced   bool
	t0       time.Duration
	cpu0     time.Duration
	wall0    time.Time
	excluded time.Duration
	msg      int32

	spans   []span
	stack   []int32
	lastTop int64
	ms      runtime.MemStats
}

func newClock(traced bool) *clock {
	return &clock{traced: traced, t0: threadCPU(), cpu0: processCPU(), wall0: time.Now()}
}

// call runs fn as one call of kind k and returns its duration.
func (c *clock) call(k spanKind, fn func()) time.Duration {
	if !c.traced {
		start := threadCPU()
		fn()
		d := threadCPU() - start
		if k.excluded() {
			c.excluded += d
		}
		return d
	}
	idx := c.open(k)
	fn()
	return c.close(idx)
}

func (c *clock) now() int64 { return int64(threadCPU() - c.t0) }

// open starts a span. MemStats are read outside the span's own
// interval, so a top-level read lands in driver time and the recorded
// call durations carry no tracing cost of their own. Excluded kinds
// skip the reads: their allocations are not reported.
func (c *clock) open(k spanKind) int32 {
	parent := int32(-1)
	if len(c.stack) > 0 {
		parent = c.stack[len(c.stack)-1]
	}
	if !k.excluded() {
		runtime.ReadMemStats(&c.ms)
	}
	now := c.now()
	if parent < 0 && now > c.lastTop {
		c.spans = append(c.spans, span{kind: kindDriver, parent: -1, msg: c.msg, start: c.lastTop, end: now})
	}
	c.spans = append(c.spans, span{
		kind: k, parent: parent, msg: c.msg,
		start: now, allocs: c.ms.Mallocs, allocBytes: c.ms.TotalAlloc,
	})
	idx := int32(len(c.spans) - 1)
	c.stack = append(c.stack, idx)
	return idx
}

func (c *clock) close(idx int32) time.Duration {
	end := c.now()
	s := &c.spans[idx]
	s.end = end
	if s.kind.excluded() {
		s.allocs, s.allocBytes = 0, 0
	} else {
		runtime.ReadMemStats(&c.ms)
		s.allocs = c.ms.Mallocs - s.allocs
		s.allocBytes = c.ms.TotalAlloc - s.allocBytes
	}
	c.stack = c.stack[:len(c.stack)-1]
	if s.parent < 0 {
		c.lastTop = end
		if s.kind.excluded() {
			c.excluded += time.Duration(end - s.start)
		}
	}
	return time.Duration(end - s.start)
}

// finish closes the phase. It returns the driver thread's measured CPU
// time, which the top-level spans add up to; the process's measured CPU
// time, which adds the runtime's other threads (background garbage
// collection); both less the excluded calls; and the elapsed wall time.
func (c *clock) finish() (busy, cpu, elapsed time.Duration) {
	end := c.now()
	if c.traced && end > c.lastTop {
		c.spans = append(c.spans, span{kind: kindDriver, parent: -1, msg: c.msg, start: c.lastTop, end: end})
		c.lastTop = end
	}
	return time.Duration(end) - c.excluded, processCPU() - c.cpu0 - c.excluded, time.Since(c.wall0)
}

// selfTimes returns each span's duration minus the time its child
// spans cover. Spans nest strictly (one goroutine), so children never
// overlap one another.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// kindTotals sums self time and the per-call durations by kind.
type kindTotals struct {
	self  [numKinds]int64
	count [numKinds]int
	durs  [numKinds][]int64
}

func summarize(spans []span) kindTotals {
	var t kindTotals
	for i, self := range selfTimes(spans) {
		s := spans[i]
		t.self[s.kind] += self
		t.count[s.kind]++
		t.durs[s.kind] = append(t.durs[s.kind], s.end-s.start)
	}
	return t
}

// topLevelSum adds the durations of the top-level spans that count
// toward the measured driver time.
func topLevelSum(spans []span) int64 {
	var sum int64
	for _, s := range spans {
		if s.parent < 0 && !s.kind.excluded() {
			sum += s.end - s.start
		}
	}
	return sum
}

// writeSpans writes one JSON object per span, with its self time, to
// path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for i, s := range spans {
		rec := struct {
			ID         int    `json:"id"`
			Name       string `json:"name"`
			Parent     int32  `json:"parent"`
			Msg        int32  `json:"msg"`
			StartNs    int64  `json:"start_ns"`
			EndNs      int64  `json:"end_ns"`
			SelfNs     int64  `json:"self_ns"`
			Allocs     uint64 `json:"allocs"`
			AllocBytes uint64 `json:"alloc_bytes"`
		}{i, kindNames[s.kind], s.parent, s.msg, s.start, s.end, self[i], s.allocs, s.allocBytes}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
