package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"concilium/internal/metrics"
)

// metricSpec names one reported metric. BENCHMARK.json and README.md
// list the same names, units and directions; the self-test holds them
// together.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off.
var endToEnd = []metricSpec{
	{"msgs_per_s", "msg/s", "higher"},
	{"send_us_p50", "us", "lower"},
	{"send_us_p90", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"wire_kb_per_msg", "KiB/msg", "lower"},
}

// perLayer are the metrics of single layers, from the traced run.
var perLayer = []metricSpec{
	{"overlay.route_hops", "hops", "lower"},
	{"overlay.route_us_p50", "us", "lower"},
	{"overlay.churn_us_p50", "us", "lower"},
	{"overlay.churn_busy_share", "ratio", "lower"},
	{"tomography.tree_us_p50", "us", "lower"},
	{"tomography.archive_records_per_msg", "records/msg", "lower"},
	{"tomography.archive_pruned_per_msg", "records/msg", "lower"},
	{"tomography.archive_size", "records", "lower"},
	{"core.run_busy_share", "ratio", "lower"},
	{"core.probe_sweeps_per_msg", "sweeps/msg", "lower"},
	{"core.send_busy_share", "ratio", "lower"},
	{"core.blame_calls_per_msg", "calls/msg", "lower"},
	{"core.blame_us_mean", "us", "lower"},
	{"core.blame_busy_share", "ratio", "lower"},
	{"core.blame_probes_mean", "probes", "lower"},
	{"core.chains_per_kmsg", "chains/kmsg", "lower"},
	{"core.chain_len_mean", "links", "lower"},
	{"core.culprit_miss_per_kmsg", "1/kmsg", "lower"},
	{"dht.publish_us_p50", "us", "lower"},
	{"dht.publish_busy_share", "ratio", "lower"},
	{"dht.put_us_mean", "us", "lower"},
	{"dht.rebalance_us_p50", "us", "lower"},
	{"dht.rebalance_busy_share", "ratio", "lower"},
	{"dht.chains_rejected", "count", "lower"},
	{"sigcrypto.verify_cache_hit_ratio", "ratio", "higher"},
	{"netsim.packets_per_msg", "packets/msg", "lower"},
	{"wire.message_bytes_per_msg", "B/msg", "lower"},
	{"wire.ack_bytes_per_msg", "B/msg", "lower"},
	{"wire.probe_bytes_per_msg", "B/msg", "lower"},
	{"wire.accusation_bytes_per_msg", "B/msg", "lower"},
	{"runtime.allocs_per_msg", "allocs/msg", "lower"},
	{"runtime.alloc_kb_per_msg", "KiB/msg", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.offthread_cpu_share", "ratio", "lower"},
	{"bench.driver_busy_share", "ratio", "lower"},
	{"bench.op_error_rate", "ratio", "lower"},
	{"bench.msgs_per_s_untraced", "msg/s", "higher"},
	{"bench.msgs_per_s_traced", "msg/s", "higher"},
	{"bench.trace_overhead", "ratio", "lower"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills a metric map from the specs, refusing a missing name or a
// value JSON cannot carry.
func report(specs []metricSpec, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(specs))
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = value{Value: v, Unit: s.unit}
	}
	if len(vals) != len(specs) {
		return nil, fmt.Errorf("%d metrics computed for %d names", len(vals), len(specs))
	}
	return out, nil
}

// percentile returns the nearest-rank q-quantile of xs (sorted in
// place), or 0 for no samples.
func percentile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(k, 0)]
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func histMean(s metrics.Snapshot, name string) float64 {
	h := s.Histograms[name]
	return ratio(float64(h.Sum), float64(h.Count))
}

// endToEndMetrics computes the untraced run's metrics over its measured
// phase.
func endToEndMetrics(p *phase, setups []time.Duration, peakRSS int64) map[string]float64 {
	secs := make([]int64, len(setups))
	for i, d := range setups {
		secs[i] = int64(d)
	}
	return map[string]float64{
		"msgs_per_s":      float64(p.all.Sent) / p.cpu.Seconds(),
		"send_us_p50":     us(percentile(p.sendNs, 0.50)),
		"send_us_p90":     us(percentile(p.sendNs, 0.90)),
		"setup_s":         time.Duration(percentile(secs, 0.5)).Seconds(),
		"peak_rss_mb":     float64(peakRSS) / (1 << 20),
		"wire_kb_per_msg": float64(p.all.WireBytes) / float64(p.all.Sent) / 1024,
	}
}

// perLayerMetrics computes the traced run's layer metrics from its spans
// and the registry delta over the phase. u is the same workload's
// untraced phase over the same messages; the runtime's memory counters
// and the CPU time of the process's other threads come from it, so the
// tracer's own allocations and the garbage they make do not count.
func perLayerMetrics(p, u *phase) map[string]float64 {
	t := summarize(p.spans)
	busy := float64(p.busy)
	msgs := float64(p.all.Sent)
	d := p.delta
	perMsg := func(counter string) float64 { return float64(d.Counters[counter]) / msgs }
	share := func(k spanKind) float64 { return float64(t.self[k]) / busy }
	p50 := func(k spanKind) float64 { return us(percentile(t.durs[k], 0.5)) }
	all := p.all
	traced := msgs / p.cpu.Seconds()
	plain := float64(u.all.Sent) / u.cpu.Seconds()
	return map[string]float64{
		"overlay.route_hops":                 float64(p.hops) / msgs,
		"overlay.route_us_p50":               p50(kindRouteReplay),
		"overlay.churn_us_p50":               p50(kindChurn),
		"overlay.churn_busy_share":           share(kindChurn),
		"tomography.tree_us_p50":             p50(kindTreeReplay),
		"tomography.archive_records_per_msg": perMsg("tomography/archive_records"),
		"tomography.archive_pruned_per_msg":  perMsg("tomography/archive_pruned"),
		"tomography.archive_size":            float64(d.Gauges["tomography/archive_size"]),
		"core.run_busy_share":                share(kindRun),
		"core.probe_sweeps_per_msg":          perMsg("core/probe_sweeps"),
		"core.send_busy_share":               share(kindSend),
		"core.blame_calls_per_msg":           perMsg("core/blame_calls"),
		"core.blame_us_mean":                 histMean(d, "core/blame_wallns") / 1e3,
		"core.blame_busy_share":              float64(d.Histograms["core/blame_wallns"].Sum) / busy,
		"core.blame_probes_mean":             histMean(d, "core/blame_probes"),
		"core.chains_per_kmsg":               1000 * float64(all.Chains) / float64(all.Sent),
		"core.chain_len_mean":                histMean(d, "core/accusation_chain_len"),
		"core.culprit_miss_per_kmsg":         1000 * float64(all.CulpritMisses) / float64(all.Sent),
		"dht.publish_us_p50":                 p50(kindPublish),
		"dht.publish_busy_share":             share(kindPublish),
		"dht.put_us_mean":                    histMean(d, "dht/put_wallns") / 1e3,
		"dht.rebalance_us_p50":               p50(kindRebalance),
		"dht.rebalance_busy_share":           share(kindRebalance),
		"dht.chains_rejected":                float64(d.Counters["dht/chains_rejected"]),
		"sigcrypto.verify_cache_hit_ratio":   ratio(float64(p.verifyHits), float64(p.verifyHits+p.verifyMisses)),
		"netsim.packets_per_msg":             perMsg("netsim/packets_delivered") + perMsg("netsim/packets_dropped"),
		"wire.message_bytes_per_msg":         perMsg("wire/message_bytes"),
		"wire.ack_bytes_per_msg":             perMsg("wire/ack_bytes"),
		"wire.probe_bytes_per_msg":           perMsg("wire/probe_bytes"),
		"wire.accusation_bytes_per_msg":      perMsg("wire/accusation_bytes"),
		"runtime.allocs_per_msg":             float64(u.memAfter.Mallocs-u.memBefore.Mallocs) / msgs,
		"runtime.alloc_kb_per_msg":           float64(u.memAfter.TotalAlloc-u.memBefore.TotalAlloc) / 1024 / msgs,
		"runtime.gc_cycles":                  float64(u.memAfter.NumGC - u.memBefore.NumGC),
		"runtime.gc_pause_ms":                float64(u.memAfter.PauseTotalNs-u.memBefore.PauseTotalNs) / 1e6,
		"runtime.offthread_cpu_share":        float64(u.cpu-u.busy) / float64(u.cpu),
		"bench.driver_busy_share":            share(kindDriver),
		"bench.op_error_rate":                ratio(float64(p.failed), float64(p.attempted)),
		"bench.msgs_per_s_untraced":          plain,
		"bench.msgs_per_s_traced":            traced,
		"bench.trace_overhead":               plain/traced - 1,
	}
}
