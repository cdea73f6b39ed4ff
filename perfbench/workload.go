package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"concilium/internal/topology"
)

// workload is one set of inputs the benchmark runs. Every field is a
// property of the system or of the traffic the generator feeds it; none
// of them selects a code path inside the program.
type workload struct {
	name string
	// why records what the workload stresses and what it bypasses.
	why string
	// n sizes the transit-stub topology (about n overlay nodes).
	n int
	// malicious is the share of nodes that drop messages (and, as the
	// paper's §4.3 adaptive adversary, lie in their probe results).
	malicious float64
	// probing starts every node's randomized probe loop.
	probing bool
	// warmup is the virtual time run after start-up and before the
	// first measured message, so the probe archive is at steady state.
	warmup time.Duration
	// pace is the virtual time advanced after each message.
	pace time.Duration
	// churnEvery is the number of messages between churn events (one
	// departure plus one join each); 0 disables churn.
	churnEvery int
	// rate is the messages per measured second on the reference host
	// (2 cores, x86-64) at the commit that defined the benchmark. A run
	// sends a fixed number of messages, so two commits always do the
	// same work however fast each is; the rate only converts --seconds
	// into that number.
	rate int
	// window is the number of leading messages the untraced run repeats
	// on a second system to check that outcomes depend on the seed
	// alone.
	window int
}

// messages is the measured phase's length for a run of about seconds on
// the reference host.
func (w workload) messages(seconds int) int {
	return max(w.rate*seconds, w.window)
}

// workloads are the benchmark's workloads, in the order BENCHMARK.json
// lists them. The paper's diagnosis workload on its own (churn's system
// with link failures on and no churn) is not among them. Nearly all its
// time goes to inserting into, pruning and scanning a probe archive of
// about a million records, and on the shared reference host that
// memory-bound work ran up to a quarter faster or slower for minutes at
// a time, beyond the widest bound a metric may carry (see README.md).
var workloads = []workload{
	{
		name:   "route-cold",
		why:    "every send delivered at ~20k nodes: overlay routing plus lazy steward-tree BFS over ~80k routers; bypasses archive, blame and DHT",
		n:      20000,
		pace:   100 * time.Millisecond,
		rate:   240,
		window: 400,
	},
	{
		name:       "churn",
		why:        "the paper's section 4 system without link failures (all probing, 10% droppers) plus a join and a departure every 10 messages: membership writes beside routing reads, tree invalidation, DHT rebalance",
		n:          1000,
		malicious:  0.1,
		probing:    true,
		warmup:     5 * time.Minute,
		pace:       2 * time.Second,
		churnEvery: 10,
		rate:       65,
		window:     400,
	},
}

// findWorkload returns the workload with the given name.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaleTopology sizes a transit-stub graph to yield about 2n end hosts,
// so the 0.5 overlay fraction lands near n overlay nodes: the sizing
// concilium-bench's scale and traffic figures use, repeated here because
// the benchmark drives the program only through its library packages.
func scaleTopology(n int) topology.Config {
	const hostsPerSPT = 4 * 10 * 6
	spt := (2*n + hostsPerSPT - 1) / hostsPerSPT
	if spt < 1 {
		spt = 1
	}
	return topology.Config{
		TransitDomains:          4,
		RoutersPerTransitDomain: 10,
		TransitChordsPerRouter:  1,
		InterDomainLinks:        2,
		StubsPerTransitRouter:   spt,
		MeanRoutersPerStub:      6,
		StubChordFraction:       0.2,
		StubMultihomeFraction:   0.1,
		HostsPerStubRouter:      1.0,
	}
}

// generator draws a workload's traffic and churn schedule from the
// benchmark's seed alone. It is separate from the system's own random
// source, which stays fixed, so changing the seed changes only which
// pairs talk and who churns — never the topology or the faulty set.
type generator struct {
	rng *rand.Rand
}

func newGenerator(seed uint64) *generator {
	return &generator{rng: rand.New(rand.NewPCG(seed, seed^0x70657266626e6368))}
}

// pair draws a source and a distinct destination ring position,
// uniform over a population of n members.
func (g *generator) pair(n int) (uint32, uint32) {
	a := g.rng.IntN(n)
	b := g.rng.IntN(n - 1)
	if b >= a {
		b++
	}
	return uint32(a), uint32(b)
}

// member draws a ring position uniform over n members, avoiding the
// positions in skip.
func (g *generator) member(n int, skip ...uint32) uint32 {
	for {
		i := uint32(g.rng.IntN(n))
		ok := true
		for _, s := range skip {
			ok = ok && i != s
		}
		if ok {
			return i
		}
	}
}

// onRoute draws a departure victim from route[1:] — the hops and the
// destination of the next message — so a departure scheduled into that
// message's forward pass can drop it mid-flight. It reports false when
// the route has no hop past its source.
func (g *generator) onRoute(route []uint32) (uint32, bool) {
	if len(route) < 2 {
		return 0, false
	}
	return route[1+g.rng.IntN(len(route)-1)], true
}

// router draws a join's attachment router, uniform over the end hosts
// as internal/chaos does.
func (g *generator) router(hosts []topology.RouterID) topology.RouterID {
	return hosts[g.rng.IntN(len(hosts))]
}
