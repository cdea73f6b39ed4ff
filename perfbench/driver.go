package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"concilium/internal/core"
	"concilium/internal/dht"
	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/overlay"
	"concilium/internal/sigcrypto"
	"concilium/internal/topology"
)

// systemSeed fixes the system's own random source — topology, keys,
// faulty set, probe schedule — for every run. The benchmark's seed
// drives only the generator.
const systemSeed = 42

// dhtReplicas is the accusation store's replica-set size.
const dhtReplicas = 5

// rig is one built system with its accusation repository and metrics
// registry.
type rig struct {
	w         workload
	cs        *core.CompactSystem
	reg       *metrics.Registry
	store     *dht.Store
	repo      *dht.AccusationRepo
	hosts     []topology.RouterID
	threshold float64
}

// setup builds the system, starts probing as the workload asks, runs
// the warm-up and opens the accusation store.
// The returned duration is the workload's set-up time, in CPU time of
// the process. The build runs on one worker, inline on the calling
// goroutine, so that CPU time is the serial set-up time; the system
// built is the same for any worker count.
func setup(w workload) (*rig, time.Duration, error) {
	start := processCPU()
	reg := metrics.NewRegistry()
	cfg := core.DefaultSystemConfig()
	cfg.Topology = scaleTopology(w.n)
	cfg.OverlayFraction = 0.5
	cfg.MaliciousFraction = w.malicious
	cfg.ArchiveRetention = 5 * time.Minute
	cfg.Metrics = reg
	cfg.Workers = 1
	cs, err := core.BuildCompactSystem(cfg, rand.New(rand.NewPCG(systemSeed, systemSeed)))
	if err != nil {
		return nil, 0, fmt.Errorf("build: %w", err)
	}
	if w.probing {
		if err := cs.StartProbing(); err != nil {
			return nil, 0, fmt.Errorf("start probing: %w", err)
		}
	}
	cs.Run(w.warmup)
	// The store gets its own copy of the membership: the compact overlay
	// changes its ring in place on churn, and the store must keep the old
	// membership until the driver rebalances it.
	ring, err := overlay.NewRing(cs.Overlay.IDs())
	if err != nil {
		return nil, 0, err
	}
	store, err := dht.New(ring, dhtReplicas)
	if err != nil {
		return nil, 0, err
	}
	store.SetMetrics(reg)
	repo, err := dht.NewAccusationRepo(store, cs.KeyDir(), cfg.Blame.GuiltyThreshold)
	if err != nil {
		return nil, 0, err
	}
	repo.SetMetrics(reg)
	r := &rig{
		w: w, cs: cs, reg: reg, store: store, repo: repo,
		hosts: cs.Topo.EndHosts(), threshold: cfg.Blame.GuiltyThreshold,
	}
	return r, processCPU() - start, nil
}

// counts are the deterministic outcome counts of a run of messages.
type counts struct {
	Sent, Delivered                            int
	NodeDrops, LinkDrops, AckDrops, ChurnDrops int
	Chains, CulpritMisses                      int
	ArchiveSize                                int
	WireBytes                                  uint64
}

// phase is the outcome of one run of the closed loop over a rig.
type phase struct {
	// busy is the driver thread's measured CPU time, cpu the process's;
	// elapsed is wall time, checks and replays included.
	busy, cpu, elapsed time.Duration
	sendNs             []int64
	hops               int
	// all covers every message; window covers the leading messages the
	// determinism check compares.
	all, window counts

	attempted, failed int
	problems          []string

	delta        metrics.Snapshot
	memBefore    runtime.MemStats
	memAfter     runtime.MemStats
	verifyHits   uint64
	verifyMisses uint64

	spans []span
}

// fail records a failed call or check.
func (p *phase) fail(format string, args ...any) {
	p.failN(1, format, args...)
}

// failN records n failed operations under one description.
func (p *phase) failN(n int, format string, args ...any) {
	p.failed += n
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// loop is the closed-loop driver state for one phase.
type loop struct {
	r     *rig
	g     *generator
	c     *clock
	p     *phase
	route []uint32
	bfs   topology.BFSScratch
	// departed is a node that has left the overlay but not yet the
	// store.
	departed id.ID

	checkHits, checkMisses uint64
}

// runPhase drives the closed loop on r for count messages: each
// iteration draws a pair, applies any due churn, sends one stewarded
// message, checks and tallies the report, publishes its chain, and
// advances virtual time by the pace. Tracing records a span per call and
// replays the read-only routing and tree calls, the latter on every
// treeEvery-th message (0: never).
func runPhase(r *rig, seed uint64, count int, traced bool, treeEvery int) (*phase, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p := &phase{}
	l := &loop{r: r, g: newGenerator(seed), p: p}
	cs := r.cs
	before := r.reg.Snapshot()
	errsBefore := programErrors(cs)
	sigcrypto.ResetVerifyCache()
	runtime.ReadMemStats(&p.memBefore)
	l.c = newClock(traced)
	c := l.c
	for i := 0; i < count; i++ {
		c.msg = int32(i)
		a, b := l.g.pair(cs.Size())
		src, dst := cs.NodeID(a), cs.NodeID(b)
		if r.w.churnEvery > 0 && i > 0 && i%r.w.churnEvery == 0 {
			l.churn(i/r.w.churnEvery, src, dst)
		}
		var rep *core.DeliveryReport
		var err error
		d := c.call(kindSend, func() { rep, err = cs.SendMessage(src, dst) })
		p.sendNs = append(p.sendNs, int64(d))
		l.settle()
		p.attempted++
		p.all.Sent++
		if err != nil {
			p.fail("send %d: %v", i, err)
		} else {
			c.call(kindCheck, func() {
				p.attempted++
				if err := checkReport(rep, src, dst); err != nil {
					p.fail("report %d: %v", i, err)
				}
			})
			p.hops += len(rep.Route) - 1
			tally(&p.all, rep)
			if traced {
				l.replay(src, dst, rep, treeEvery > 0 && i%treeEvery == 0)
			}
			if rep.Chain != nil {
				l.publish(i, rep.Chain)
			}
		}
		c.call(kindRun, func() { cs.Run(r.w.pace) })
		l.settle()
		if i+1 == r.w.window {
			c.call(kindCheck, func() { p.window = l.closeCounts(before) })
		}
	}
	p.busy, p.cpu, p.elapsed = c.finish()
	runtime.ReadMemStats(&p.memAfter)
	p.spans = c.spans
	hits, misses, _ := sigcrypto.VerifyCacheStats()
	p.verifyHits, p.verifyMisses = hits-l.checkHits, misses-l.checkMisses
	p.all = l.closeCounts(before)
	delta, err := r.reg.Snapshot().Diff(before)
	if err != nil {
		return nil, err
	}
	p.delta = delta
	// Each error the program counted is one more failed operation.
	if n := int(programErrors(cs) - errsBefore); n > 0 {
		p.attempted += n
		p.failN(n, "%d archive-record and probe-reschedule errors", n)
	}
	return p, nil
}

// programErrors sums the error fields of the system's own counters:
// probe results the archive refused and probe loops that could not be
// rescheduled. The other fields count degradations, not errors.
func programErrors(cs *core.CompactSystem) uint64 {
	return cs.Counters.ArchiveRecordErrors + cs.Counters.ProbeRescheduleErrors
}

// closeCounts returns the outcome counts so far, completed with the
// archive size and the wire bytes sent since before.
func (l *loop) closeCounts(before metrics.Snapshot) counts {
	c := l.p.all
	c.ArchiveSize = l.r.cs.Archive.Size()
	now := l.r.reg.Snapshot()
	for _, name := range wireCounters {
		c.WireBytes += now.Counters[name] - before.Counters[name]
	}
	return c
}

// publish stores a chain in the DHT and then, outside the measured
// time, checks that it verifies against the current key directory. No
// churn happens between the send that built the chain and this check,
// so every signer is still a member.
func (l *loop) publish(i int, chain *core.RevisionChain) {
	r, p := l.r, l.p
	var err error
	l.c.call(kindPublish, func() { err = r.repo.PublishAt(chain, r.cs.Sim.Now()) })
	p.attempted++
	if err != nil {
		p.fail("publish %d: %v", i, err)
	}
	l.c.call(kindCheck, func() {
		h0, m0, _ := sigcrypto.VerifyCacheStats()
		p.attempted++
		if err := chain.Verify(r.cs.KeyDir(), r.threshold); err != nil {
			p.fail("chain %d does not verify: %v", i, err)
		}
		h1, m1, _ := sigcrypto.VerifyCacheStats()
		l.checkHits += h1 - h0
		l.checkMisses += m1 - m0
	})
}

// churn applies churn event k before the message from src to dst: one
// join, then one departure. Odd events schedule the departure 1 ms
// ahead, inside the message's first forward leg, and take the victim
// from that message's route so it can drop mid-flight; even events
// depart a random member at once. The source is never a victim, and
// the destination only as an on-route departure.
func (l *loop) churn(k int, src, dst id.ID) {
	r, p, cs := l.r, l.p, l.r.cs
	var err error
	l.c.call(kindChurn, func() { _, err = cs.JoinNode(l.g.router(r.hosts)) })
	p.attempted++
	if err != nil {
		p.fail("join: %v", err)
	} else {
		l.rebalance(id.ID{})
	}
	si, _ := cs.Overlay.IndexOf(src)
	di, _ := cs.Overlay.IndexOf(dst)
	var victim id.ID
	if k%2 == 1 {
		l.route, err = cs.Overlay.AppendRouteSecure(si, dst, 0, l.route[:0])
		if err != nil {
			p.attempted++
			p.fail("route for churn victim: %v", err)
			return
		}
		v, ok := l.g.onRoute(l.route)
		if !ok {
			v = l.g.member(cs.Size(), si, di)
		}
		victim = cs.NodeID(v)
		p.attempted++
		if err := cs.Sim.ScheduleAfter(time.Millisecond, func() { l.depart(victim) }); err != nil {
			p.fail("schedule departure: %v", err)
		}
		return
	}
	victim = cs.NodeID(l.g.member(cs.Size(), si, di))
	l.depart(victim)
	l.settle()
}

// depart fails a node and leaves it for settle to remove from the
// store. A departure scheduled into a send thus costs that send only
// the overlay repair; the store catches up once the driver regains
// control.
func (l *loop) depart(victim id.ID) {
	var err error
	l.c.call(kindChurn, func() { err = l.r.cs.FailNode(victim) })
	l.p.attempted++
	if err != nil {
		l.p.fail("depart %s: %v", victim.Short(), err)
		return
	}
	l.departed = victim
}

// settle marks a departed node's replica faulty (the crashed machine
// takes its data with it) and rebalances the store.
func (l *loop) settle() {
	if l.departed != (id.ID{}) {
		l.rebalance(l.departed)
		l.departed = id.ID{}
	}
}

// rebalance moves the store onto the current membership, first marking
// departed (when non-zero) faulty.
func (l *loop) rebalance(departed id.ID) {
	r := l.r
	var err error
	l.c.call(kindRebalance, func() {
		if departed != (id.ID{}) {
			if err = r.store.SetFaulty(departed, true); err != nil {
				return
			}
		}
		ring, rerr := overlay.NewRing(r.cs.Overlay.IDs())
		if rerr != nil {
			err = rerr
			return
		}
		err = r.store.Rebalance(ring)
	})
	l.p.attempted++
	if err != nil {
		l.p.fail("rebalance: %v", err)
	}
}

// replay times the two read-only calls of the traced run: the secure
// route of the message just sent, and, on sampled messages, the
// tomography tree of each steward still a member.
func (l *loop) replay(src, dst id.ID, rep *core.DeliveryReport, trees bool) {
	cs := l.r.cs
	si, ok := cs.Overlay.IndexOf(src)
	if !ok {
		return
	}
	if _, ok := cs.Overlay.IndexOf(dst); ok {
		var err error
		l.c.call(kindRouteReplay, func() { l.route, err = cs.Overlay.AppendRouteSecure(si, dst, 0, l.route[:0]) })
		if err != nil {
			l.p.fail("route replay: %v", err)
		}
	}
	if !trees {
		return
	}
	for _, steward := range rep.Route[:len(rep.Route)-1] {
		i, ok := cs.Overlay.IndexOf(steward)
		if !ok {
			continue
		}
		var err error
		l.c.call(kindTreeReplay, func() { _, err = cs.TreeOf(i, &l.bfs) })
		if err != nil {
			l.p.fail("tree replay: %v", err)
		}
	}
}

// checkReport checks one delivery report for internal consistency. A
// delivered message whose acknowledgment died on the reverse path keeps
// Delivered and reports DropAckByLink, so Delivered alone does not
// imply AckReceived.
func checkReport(rep *core.DeliveryReport, src, dst id.ID) error {
	if rep == nil || len(rep.Route) == 0 {
		return fmt.Errorf("empty report")
	}
	route := rep.Route
	if route[0] != src {
		return fmt.Errorf("route starts at %s, not the source %s", route[0].Short(), src.Short())
	}
	switch {
	case rep.AckReceived && (!rep.Delivered || rep.Kind != core.DropNone):
		return fmt.Errorf("acknowledged but delivered=%v kind=%v", rep.Delivered, rep.Kind)
	case rep.Delivered && !rep.AckReceived && rep.Kind != core.DropAckByLink:
		return fmt.Errorf("delivered without acknowledgment, kind=%v", rep.Kind)
	case !rep.Delivered && rep.Kind != core.DropByLink && rep.Kind != core.DropByNode && rep.Kind != core.DropByChurn:
		return fmt.Errorf("undelivered with kind=%v", rep.Kind)
	}
	if rep.Delivered && route[len(route)-1] != dst {
		return fmt.Errorf("delivered route ends at %s, not the destination %s", route[len(route)-1].Short(), dst.Short())
	}
	switch rep.Kind {
	case core.DropByNode:
		if len(route) < 3 || !contains(route[1:len(route)-1], rep.DroppedBy) {
			return fmt.Errorf("dropper %s is not a hop of the route", rep.DroppedBy.Short())
		}
	case core.DropByChurn:
		if !contains(route[1:], rep.DroppedBy) {
			return fmt.Errorf("departed %s is not on the route", rep.DroppedBy.Short())
		}
	}
	if rep.NetworkBlamed && rep.Culprit != (id.ID{}) {
		return fmt.Errorf("network blamed but culprit %s named", rep.Culprit.Short())
	}
	if rep.Chain != nil && rep.Chain.Culprit() != rep.Culprit {
		return fmt.Errorf("chain accuses %s, report %s", rep.Chain.Culprit().Short(), rep.Culprit.Short())
	}
	return nil
}

func contains(xs []id.ID, x id.ID) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// tally adds one report's outcome to c.
func tally(c *counts, rep *core.DeliveryReport) {
	if rep.Delivered && rep.AckReceived {
		c.Delivered++
	}
	switch rep.Kind {
	case core.DropByNode:
		c.NodeDrops++
		if rep.Culprit != rep.DroppedBy {
			c.CulpritMisses++
		}
	case core.DropByLink:
		c.LinkDrops++
	case core.DropAckByLink:
		c.AckDrops++
	case core.DropByChurn:
		c.ChurnDrops++
	}
	if rep.Chain != nil {
		c.Chains++
	}
}

// wireCounters are the §4.4 message classes.
var wireCounters = []string{
	"wire/message_bytes", "wire/ack_bytes", "wire/probe_bytes",
	"wire/snapshot_bytes", "wire/accusation_bytes",
}
