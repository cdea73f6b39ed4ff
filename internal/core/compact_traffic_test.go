package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/topology"
)

// Lineage locks for the traffic plane: scripted traffic — plain, with
// interleaved and mid-flight churn, batched, and through the signed
// snapshot pipeline — whose every deterministic outcome must hash to
// the digests pinned in lineage_test.go. Each scenario is fully
// deterministic for its seed, so a mismatch is a semantic change, not
// noise.

// equivSystemConfig returns the traffic-equivalence deployment at one
// of two population scales (~48 and ~256 overlay nodes).
func equivSystemConfig(medium bool) SystemConfig {
	topo := topology.TestConfig()
	if medium {
		topo = topology.Config{
			TransitDomains:          3,
			RoutersPerTransitDomain: 8,
			TransitChordsPerRouter:  1,
			InterDomainLinks:        2,
			StubsPerTransitRouter:   3,
			MeanRoutersPerStub:      6,
			StubChordFraction:       0.3,
			StubMultihomeFraction:   0.2,
			HostsPerStubRouter:      1.2,
		}
	}
	return SystemConfig{
		Topology:          topo,
		OverlayFraction:   0.5,
		Blame:             DefaultBlameConfig(),
		Window:            DefaultWindowConfig(),
		MaxProbeTime:      2 * time.Minute,
		Failures:          netsim.DefaultFailureConfig(),
		MaliciousFraction: 0.1,
	}
}

// runTraffic drives scripted traffic (and optionally a churn schedule,
// with both scheduled and mid-flight events) and checks the run's
// lineage digest.
func runTraffic(t *testing.T, scenario string, seed uint64, medium, churn bool) {
	cfg := equivSystemConfig(medium)
	cs, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(seed, seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	l := newLineage()
	var departed []id.ID
	if err := cs.StartFailures(); err != nil {
		t.Fatal(err)
	}
	if err := cs.StartProbing(); err != nil {
		t.Fatal(err)
	}
	cs.Run(5 * time.Minute)

	hosts := cs.Topo.EndHosts()
	pick := rand.New(rand.NewPCG(seed*3+1, 5))
	messages := 60
	if medium {
		messages = 30
	}
	for step := 0; step < messages; step++ {
		order := cs.AliveIDs()
		if churn && step%10 == 4 && len(order) > 8 {
			// Mid-flight departure: scheduled a hair into the next send's
			// first latency advance, so the membership change races the
			// message.
			victim := order[(step*13)%(len(order)-1)+1]
			departed = append(departed, victim)
			var errFail error
			if err := cs.Sim.ScheduleAfter(time.Millisecond, func() { errFail = cs.FailNode(victim) }); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if errFail != nil {
					t.Errorf("mid-flight FailNode: %v", errFail)
				}
			}()
		}
		if churn && step%10 == 8 {
			joined, err := cs.JoinNode(hosts[(step*37)%len(hosts)])
			l.id(joined)
			l.err(err)
			order = cs.AliveIDs()
		}
		a, b := pick.IntN(len(order)), pick.IntN(len(order))
		if a == b {
			continue
		}
		rep, err := cs.SendMessage(order[a], order[b])
		l.err(err)
		if err != nil {
			continue
		}
		l.report(rep)
		// Pacing between messages, as the sim loop does.
		cs.Run(2 * time.Second)
	}
	l.counters(cs.Counters)
	l.archive(cs.Archive, cs.Topo, cs.Sim.Now())
	l.window(append(cs.AliveIDs(), departed...), compactRecent(cs))
	requireLineage(t, scenario, l.sum())
}

// compactRecent reads a verdict window by identifier, alive or departed.
func compactRecent(cs *CompactSystem) func(id.ID) []Verdict {
	return func(x id.ID) []Verdict {
		p, ok := cs.slabOfID(x)
		if !ok {
			return nil
		}
		return cs.Window.Recent(p)
	}
}

func TestCompactTrafficEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		for _, medium := range []bool{false, true} {
			size := "n48"
			if medium {
				size = "n256"
			}
			name := fmt.Sprintf("seed%d-%s", seed, size)
			t.Run(name, func(t *testing.T) {
				runTraffic(t, "traffic/"+name, seed, medium, false)
			})
			t.Run(name+"-churn", func(t *testing.T) {
				runTraffic(t, "traffic/"+name+"-churn", seed, medium, true)
			})
		}
	}
}

// TestCompactBulkEquivalence locks SendBulk: batch outcomes, digest-ack
// clearing, and missing-message verdicts. The lossy variants mark 40%
// of the nodes as droppers so batches lose messages and the source
// judges its first hop.
func TestCompactBulkEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runBulk(t, fmt.Sprintf("bulk/seed%d", seed), seed, 0.1)
		})
		t.Run(fmt.Sprintf("seed%d-lossy", seed), func(t *testing.T) {
			runBulk(t, fmt.Sprintf("bulk/seed%d-lossy", seed), seed, 0.4)
		})
	}
}

// runBulk sends ten batches between members drawn from a fixed stream
// and checks the run's lineage digest.
func runBulk(t *testing.T, scenario string, seed uint64, malicious float64) {
	cfg := equivSystemConfig(false)
	cfg.MaliciousFraction = malicious
	cs, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(seed, seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.StartProbing(); err != nil {
		t.Fatal(err)
	}
	cs.Run(5 * time.Minute)
	l := newLineage()
	order := cs.AliveIDs()
	pick := rand.New(rand.NewPCG(seed+100, 3))
	for batch := 0; batch < 10; batch++ {
		a, b := pick.IntN(len(order)), pick.IntN(len(order))
		if a == b {
			continue
		}
		n := 5 + pick.IntN(20)
		rep, err := cs.SendBulk(order[a], order[b], n)
		l.err(err)
		if err != nil {
			continue
		}
		l.bulk(rep)
		cs.Run(time.Second)
	}
	l.counters(cs.Counters)
	l.archive(cs.Archive, cs.Topo, cs.Sim.Now())
	l.window(order, compactRecent(cs))
	requireLineage(t, scenario, l.sum())
}

// TestCompactSignedSnapshotEquivalence runs the full §3.2 signed
// pipeline and pins every member's leaf spacing with the resulting
// archive — a spacing change would change snapshot bytes and
// signatures.
func TestCompactSignedSnapshotEquivalence(t *testing.T) {
	cfg := equivSystemConfig(false)
	cfg.SignedSnapshots = true
	cs, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(7, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.StartProbing(); err != nil {
		t.Fatal(err)
	}
	cs.Run(10 * time.Minute)
	if cs.Archive.Size() == 0 {
		t.Fatal("signed probing recorded nothing")
	}
	l := newLineage()
	for _, nid := range cs.AliveIDs() {
		i, _ := cs.Overlay.IndexOf(nid)
		spacing, err := cs.Overlay.LeafMeanSpacing(i)
		l.f64(spacing)
		l.err(err)
	}
	l.counters(cs.Counters)
	l.archive(cs.Archive, cs.Topo, cs.Sim.Now())
	requireLineage(t, "signed/seed7", l.sum())
}

// BenchmarkCompactSendMessageWarm measures the compact delivered-path
// cost on a warm system — the fig13 hot loop in isolation.
func BenchmarkCompactSendMessageWarm(b *testing.B) {
	cfg := SystemConfig{
		Topology:        topology.TestConfig(),
		OverlayFraction: 0.5,
		Blame:           DefaultBlameConfig(),
		Window:          DefaultWindowConfig(),
		MaxProbeTime:    2 * time.Minute,
		Failures:        netsim.DefaultFailureConfig(),
	}
	cs, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(7, 11)))
	if err != nil {
		b.Fatal(err)
	}
	if err := cs.StartProbing(); err != nil {
		b.Fatal(err)
	}
	cs.Run(10 * time.Minute)
	alive := cs.AliveIDs()
	src, dst := alive[0], alive[len(alive)/2]
	if _, err := cs.SendMessage(src, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.SendMessage(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}
