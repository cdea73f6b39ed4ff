package core

import (
	"testing"
	"time"

	"concilium/internal/id"
)

// The churn-under-traffic tests interleave FailNode/JoinNode with
// in-flight SendMessage calls: departures are scheduled on the
// simulator so they fire during the latency advances inside the
// forward pass, exactly where a crash races the protocol. Each test
// also pins its run's lineage digest.

// churnTestSystem builds a probed system with slow hops so there is
// real virtual time to schedule churn into, and enough nodes that
// FailNode is permitted.
func churnTestSystem(t *testing.T) *CompactSystem {
	t.Helper()
	cs := buildTestSystem(t, func(c *SystemConfig) {
		c.HopLatency = time.Second
	})
	if cs.Size() <= 5 {
		t.Skip("overlay too small to remove nodes")
	}
	if err := cs.StartProbing(); err != nil {
		t.Fatal(err)
	}
	cs.Run(3 * time.Minute)
	return cs
}

// scheduleDeparture fails nid after delay of virtual time.
func scheduleDeparture(t *testing.T, cs *CompactSystem, nid id.ID, delay time.Duration) {
	t.Helper()
	err := cs.Sim.ScheduleAfter(delay, func() {
		if err := cs.FailNode(nid); err != nil {
			t.Errorf("FailNode(%s): %v", nid.Short(), err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// churnLineage closes a churn scenario's digest with the counters, the
// archive, and the windows of every current and departed member.
func churnLineage(l *lineage, cs *CompactSystem, departed []id.ID) uint64 {
	l.counters(cs.Counters)
	l.archive(cs.Archive, cs.Topo, cs.Sim.Now())
	l.window(append(cs.AliveIDs(), departed...), compactRecent(cs))
	return l.sum()
}

func TestSendMessageNextHopDepartsMidFlight(t *testing.T) {
	t.Parallel()
	cs := churnTestSystem(t)
	src, dst, route := findMultiHopPair(t, cs, 2)

	// The first intermediate hop crashes while the message is crossing
	// the first IP path toward it.
	departed := route[1]
	scheduleDeparture(t, cs, departed, 500*time.Millisecond)

	rep, err := cs.SendMessage(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered {
		t.Fatal("message delivered through a departed node")
	}
	if rep.Kind != DropByChurn || rep.DroppedBy != departed {
		t.Fatalf("drop cause: kind=%v by=%s, want churn drop by %s",
			rep.Kind, rep.DroppedBy.Short(), departed.Short())
	}
	if cs.Counters.ChurnDrops != 1 {
		t.Errorf("ChurnDrops = %d, want 1", cs.Counters.ChurnDrops)
	}
	// The source stewarded the message and still judges the silent hop;
	// with healthy, well-probed links the departed node takes the blame.
	if len(rep.Verdicts) == 0 {
		t.Fatal("no verdicts for a churn drop")
	}
	if rep.Verdicts[0].Judged != departed {
		t.Errorf("first verdict judges %s, want %s",
			rep.Verdicts[0].Judged.Short(), departed.Short())
	}
	if rep.Culprit == departed {
		// The culprit departed: no signed chain can exist, and that must
		// be reported as a degraded outcome, not silence or a panic.
		if rep.Chain != nil {
			t.Error("chain assembled with a departed culprit")
		}
		if !rep.ChainUnavailable {
			t.Error("ChainUnavailable not set for a departed culprit")
		}
		if cs.Counters.ChainsUnavailable == 0 {
			t.Error("ChainsUnavailable counter not incremented")
		}
	}
	l := newLineage()
	l.report(rep)
	requireLineage(t, "churn/next-hop-departs", churnLineage(l, cs, []id.ID{departed}))
}

func TestSendMessageStewardDepartsBeforeVerdict(t *testing.T) {
	t.Parallel()
	cs := churnTestSystem(t)
	src, dst, route := findMultiHopPair(t, cs, 2)

	// The culprit is the first intermediate; the accusing steward (the
	// source itself) departs while the message is still in flight, so by
	// diagnosis time the only possible accuser cannot sign.
	culprit := route[1]
	setDropper(t, cs, culprit)
	scheduleDeparture(t, cs, src, 500*time.Millisecond)

	rep, err := cs.SendMessage(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered {
		t.Fatal("message delivered through a dropper")
	}
	if rep.Kind != DropByNode || rep.DroppedBy != culprit {
		t.Fatalf("drop cause: %+v", rep)
	}
	if rep.Culprit != culprit {
		t.Fatalf("culprit = %s, want %s", rep.Culprit.Short(), culprit.Short())
	}
	// Every chain link needs the departed source as accuser: the verdict
	// record survives, the signed chain is reported unavailable.
	if rep.Chain != nil {
		t.Error("chain assembled with a departed accuser")
	}
	if !rep.ChainUnavailable {
		t.Error("ChainUnavailable not set for a departed accuser")
	}
	l := newLineage()
	l.report(rep)
	requireLineage(t, "churn/steward-departs", churnLineage(l, cs, []id.ID{src}))
}

func TestSendMessageMidChainStewardDepartsTruncatesChain(t *testing.T) {
	t.Parallel()
	cs := churnTestSystem(t)
	src, dst, route := findMultiHopPair(t, cs, 2)

	// An acknowledgment drop makes every steward judge its next hop, so
	// even a 2-hop route carries a 2-link chain. Freeze the archive (all
	// pre-send probes say "up"), kill the first-hop link after the
	// forward legs, and crash the source right behind it: the chain's
	// first link (src accuses route[1]) is unsignable, but the surviving
	// suffix — route[1] accusing the last hop — still verifies.
	culprit := route[len(route)-1]
	cs.SuppressProbes(true)
	path0 := peerPath(t, cs, route[0], route[1])
	var forwardSpan time.Duration
	for i := 0; i+1 < len(route); i++ {
		forwardSpan += cs.Net.Latency(peerPath(t, cs, route[i], route[i+1]))
	}
	err := cs.Sim.ScheduleAfter(forwardSpan+time.Millisecond, func() {
		if err := cs.Net.SetLinkDown(path0[0], true); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	scheduleDeparture(t, cs, src, forwardSpan+2*time.Millisecond)

	rep, err := cs.SendMessage(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delivered || rep.AckReceived {
		t.Fatalf("want delivered-but-unacked, got %+v", rep)
	}
	if rep.Kind != DropAckByLink {
		t.Fatalf("drop cause: kind=%v, want ack drop", rep.Kind)
	}
	if len(rep.Verdicts) < 2 {
		t.Fatalf("only %d verdicts; need 2+ for a truncatable chain", len(rep.Verdicts))
	}
	if rep.Culprit != culprit {
		t.Fatalf("culprit = %s, want %s", rep.Culprit.Short(), culprit.Short())
	}
	if !rep.ChainUnavailable {
		t.Error("truncated chain not flagged as degraded")
	}
	if rep.Chain == nil {
		t.Fatal("no chain despite a surviving accuser/judged suffix")
	}
	if err := rep.Chain.Verify(cs.KeyDir(), cs.Config.Blame.GuiltyThreshold); err != nil {
		t.Errorf("truncated chain does not verify: %v", err)
	}
	if rep.Chain.Culprit() != culprit {
		t.Errorf("chain culprit = %s", rep.Chain.Culprit().Short())
	}
	l := newLineage()
	l.report(rep)
	requireLineage(t, "churn/mid-chain-steward-departs", churnLineage(l, cs, []id.ID{src}))
}

func TestChurnUnderTrafficEveryRouteShape(t *testing.T) {
	t.Parallel()
	cs := churnTestSystem(t)
	l := newLineage()
	var departed []id.ID

	// Exercise self-delivery, direct routes, and multi-hop routes while
	// nodes leave and join between (and during) sends. Nothing may
	// panic, and every report must be internally consistent.
	shapes := map[int]bool{}
	sends := 0
	for round := 0; round < 6 && cs.Size() > 6; round++ {
		// Depart a node that is not the src/dst we are about to use.
		order := cs.AliveIDs()
		victim := order[len(order)-1]
		src, dst := order[0], order[len(order)/2]
		if victim == src || victim == dst {
			victim = order[len(order)-2]
		}
		departed = append(departed, victim)
		scheduleDeparture(t, cs, victim, 500*time.Millisecond)

		for _, pair := range [][2]id.ID{{src, src}, {src, dst}, {dst, src}} {
			rep, err := cs.SendMessage(pair[0], pair[1])
			if err != nil {
				t.Fatalf("round %d send %s->%s: %v",
					round, pair[0].Short(), pair[1].Short(), err)
			}
			l.report(rep)
			sends++
			shapes[len(rep.Route)] = true
			if rep.Delivered && rep.Kind != DropNone && rep.Kind != DropAckByLink {
				t.Fatalf("delivered report with drop kind %v", rep.Kind)
			}
			if rep.Kind == DropByChurn && rep.DroppedBy == (id.ID{}) {
				t.Fatal("churn drop without a dropped-by identity")
			}
		}
		cs.Run(time.Minute)

		// A newcomer joins at the departed node's old attachment point.
		joined, err := cs.JoinNode(cs.Topo.EndHosts()[0])
		if err != nil {
			t.Fatalf("round %d join: %v", round, err)
		}
		l.id(joined)
		cs.Run(time.Minute)
	}
	if sends == 0 {
		t.Skip("no sends executed")
	}
	if !shapes[1] {
		t.Error("self-delivery shape never exercised")
	}
	// After all churn, every survivor's routing state is consistent:
	// every slot and leaf resolves to a live member in its prefix slot.
	for i := 0; i < cs.Size(); i++ {
		if err := cs.Overlay.Validate(uint32(i)); err != nil {
			t.Errorf("node %s routing state invalid after churn: %v", cs.NodeID(uint32(i)).Short(), err)
		}
	}
	requireLineage(t, "churn/every-route-shape", churnLineage(l, cs, departed))
}
