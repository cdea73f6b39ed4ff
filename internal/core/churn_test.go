package core

import (
	"testing"
	"time"

	"concilium/internal/id"
	"concilium/internal/overlay"
	"concilium/internal/topology"
)

// requireSecureMatchesRebuild checks every node's secure table against
// a from-scratch fill over the current membership.
func requireSecureMatchesRebuild(t *testing.T, cs *CompactSystem) {
	t.Helper()
	ring, err := overlay.NewRing(cs.Overlay.IDs())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < uint32(cs.Size()); i++ {
		nid := cs.NodeID(i)
		rebuilt, err := overlay.BuildSecureTable(nid, ring)
		if err != nil {
			t.Fatal(err)
		}
		for row := 0; row < id.Digits; row++ {
			for col := byte(0); col < id.Base; col++ {
				got, gok := cs.Overlay.SecureSlot(i, row, col)
				want, wok := rebuilt.Slot(row, col)
				if gok != wok || (gok && cs.NodeID(got) != want) {
					t.Fatalf("node %s slot (%d,%d) diverged from rebuild", nid.Short(), row, col)
				}
			}
		}
	}
}

func TestFailNodeRepairsSurvivors(t *testing.T) {
	t.Parallel()
	cs := buildTestSystem(t, nil)
	order := cs.AliveIDs()
	victim := order[len(order)/2]
	before := cs.Size()

	if err := cs.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if _, ok := cs.Overlay.IndexOf(victim); cs.Size() != before-1 || ok {
		t.Fatal("victim not removed")
	}
	// Every survivor's state is repaired: no reference to the departed
	// node anywhere, tables still satisfy the prefix constraint, trees
	// cover the current peer sets, and the secure tables match a
	// from-scratch fill.
	var peers []uint32
	for i := uint32(0); i < uint32(cs.Size()); i++ {
		nid := cs.NodeID(i)
		peers = cs.Overlay.AppendRoutingPeers(i, peers[:0])
		for _, p := range peers {
			if cs.NodeID(p) == victim {
				t.Fatalf("node %s still peers with departed %s", nid.Short(), victim.Short())
			}
		}
		if err := cs.Overlay.Validate(i); err != nil {
			t.Fatalf("node %s routing state corrupt: %v", nid.Short(), err)
		}
		tree, err := cs.CachedTree(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(tree.Leaves) != len(peers) {
			t.Fatalf("node %s tree out of sync with peers", nid.Short())
		}
	}
	requireSecureMatchesRebuild(t, cs)
	// Routing still works end to end.
	order = cs.AliveIDs()
	rep, err := cs.SendMessage(order[0], order[len(order)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delivered {
		t.Error("delivery failed after churn repair")
	}
	if err := cs.FailNode(victim); err == nil {
		t.Error("double failure accepted")
	}
	if err := cs.FailNode(id.Zero); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestJoinNodeIntegrates(t *testing.T) {
	t.Parallel()
	cs := buildTestSystem(t, nil)
	if err := cs.StartProbing(); err != nil {
		t.Fatal(err)
	}
	// Attach the newcomer at a free end-host router.
	used := map[topology.RouterID]bool{}
	for i := uint32(0); i < uint32(cs.Size()); i++ {
		used[cs.Router(i)] = true
	}
	router := topology.RouterID(-1)
	for _, h := range cs.Topo.EndHosts() {
		if !used[h] {
			router = h
			break
		}
	}
	if router < 0 {
		t.Skip("no free end host")
	}
	before := cs.Size()
	newID, err := cs.JoinNode(router)
	if err != nil {
		t.Fatal(err)
	}
	ni, ok := cs.Overlay.IndexOf(newID)
	if cs.Size() != before+1 || !ok {
		t.Fatal("join not registered")
	}
	tree, err := cs.CachedTree(ni)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Leaves) == 0 {
		t.Fatal("newcomer has no tree")
	}
	if err := cs.Overlay.Validate(ni); err != nil {
		t.Fatalf("newcomer routing state invalid: %v", err)
	}
	// Survivors folded the newcomer in exactly as a rebuild would.
	requireSecureMatchesRebuild(t, cs)
	// Traffic reaches the newcomer, and its probes land in the archive.
	rep, err := cs.SendMessage(cs.AliveIDs()[0], newID)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delivered {
		t.Error("cannot deliver to newcomer")
	}
	cs.Run(5 * time.Minute)
	recs := 0
	for _, l := range tree.Links() {
		for _, r := range cs.Archive.Window(l, 0, cs.Sim.Now()) {
			if r.Prober == newID {
				recs++
			}
		}
	}
	if recs == 0 {
		t.Error("newcomer never probed")
	}
}

func TestSendBulkCleanAndLossy(t *testing.T) {
	t.Parallel()
	cs := buildTestSystem(t, nil)
	if err := cs.StartProbing(); err != nil {
		t.Fatal(err)
	}
	cs.Run(3 * time.Minute)
	src, dst, route := findMultiHopPair(t, cs, 2)

	// Clean batch: everything delivered and cleared; no verdicts.
	rep, err := cs.SendBulk(src, dst, 20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 20 || rep.Cleared != 20 || len(rep.Missing) != 0 {
		t.Fatalf("clean bulk: %+v", rep)
	}
	if rep.AckDigests != 20 {
		t.Errorf("ack digests = %d", rep.AckDigests)
	}

	// Dropper on the first hop: everything missing, verdicts issued.
	dropper := route[1]
	setDropper(t, cs, dropper)
	rep, err = cs.SendBulk(src, dst, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 0 || len(rep.Missing) != 10 {
		t.Fatalf("dropper bulk: %+v", rep)
	}
	if len(rep.Verdicts) != 10 {
		t.Fatalf("verdicts = %d, want 10", len(rep.Verdicts))
	}
	for _, v := range rep.Verdicts {
		if v.Judged != dropper || !v.Guilty {
			t.Fatalf("verdict %+v, want guilty against dropper", v)
		}
	}
	// Window accumulated them.
	if got := cs.GuiltyCount(dropper); got != 10 {
		t.Errorf("window guilty count = %d", got)
	}
	if _, err := cs.SendBulk(src, dst, 0); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := cs.SendBulk(id.Zero, dst, 1); err == nil {
		t.Error("unknown source accepted")
	}
}
