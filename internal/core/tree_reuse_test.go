package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"concilium/internal/overlay"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

// TestChurnTreeReuseMatchesFromScratch drives plain churn (no probing,
// no traffic) across the chaos campaign seeds and verifies the tree
// cache — kept where a node's peers did not change, rebuilt from the
// cached BFS where they did — against an independent from-scratch
// BuildTree over each node's current routing peers: same leaf order,
// same link sets, and identical PathTo results link for link.
func TestChurnTreeReuseMatchesFromScratch(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultSystemConfig()
			cfg.Topology = topology.TestConfig()
			cfg.OverlayFraction = 0.5
			cs, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(seed, seed+1)))
			if err != nil {
				t.Fatal(err)
			}
			verifyTreesMatchScratch(t, cs) // fills the cache
			churn := rand.New(rand.NewPCG(seed+2, seed+3))
			hosts := cs.Topo.EndHosts()
			for round := 0; round < 4; round++ {
				if cs.Size() > 6 {
					alive := cs.AliveIDs()
					if err := cs.FailNode(alive[churn.IntN(len(alive))]); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := cs.JoinNode(hosts[churn.IntN(len(hosts))]); err != nil {
					t.Fatal(err)
				}
				verifyTreesMatchScratch(t, cs)
			}
		})
	}
}

// verifyTreesMatchScratch compares every node's cached tree against a
// from-scratch BuildTree over the node's current routing peers.
func verifyTreesMatchScratch(t *testing.T, cs *CompactSystem) {
	t.Helper()
	var peers []uint32
	for i := uint32(0); i < uint32(cs.Size()); i++ {
		peers = cs.Overlay.AppendRoutingPeers(i, peers[:0])
		leaves := make([]tomography.Leaf, 0, len(peers))
		for _, j := range peers {
			leaves = append(leaves, tomography.Leaf{Node: cs.NodeID(j), Router: cs.Router(j)})
		}
		fresh, err := tomography.BuildTree(cs.Topo, cs.NodeID(i), cs.Router(i), leaves)
		if err != nil {
			t.Fatal(err)
		}
		live, err := cs.CachedTree(i)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, cs.NodeID(i).Short(), live, fresh)
	}
}

// TestCompactChurnTreeCacheMatchesFromScratch adds probing and traffic:
// cached trees survive joins and departures (including a
// departure that lands mid-flight) and are revalidated on their next
// use, and every alive slab's tree must then equal a fresh TreeOf —
// same leaves, paths and links — while departed slabs hold no tree.
func TestCompactChurnTreeCacheMatchesFromScratch(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cs, err := BuildCompactSystem(equivSystemConfig(true), rand.New(rand.NewPCG(seed, seed+1)))
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.StartProbing(); err != nil {
				t.Fatal(err)
			}
			cs.Run(5 * time.Minute)
			churn := rand.New(rand.NewPCG(seed+2, seed+3))
			hosts := cs.Topo.EndHosts()
			kept, rebuilt := 0, 0
			for round := 0; round < 6; round++ {
				before := append([]*tomography.Tree(nil), cs.trees...)
				alive := cs.AliveIDs()
				victim := alive[churn.IntN(len(alive))]
				var errFail error
				if err := cs.Sim.ScheduleAfter(time.Millisecond, func() { errFail = cs.FailNode(victim) }); err != nil {
					t.Fatal(err)
				}
				src, dst := alive[churn.IntN(len(alive))], alive[churn.IntN(len(alive))]
				if src != dst && src != victim && dst != victim {
					if _, err := cs.SendMessage(src, dst); err != nil {
						t.Fatal(err)
					}
				}
				cs.Run(30 * time.Second)
				if errFail != nil {
					t.Fatal(errFail)
				}
				if _, err := cs.JoinNode(hosts[churn.IntN(len(hosts))]); err != nil {
					t.Fatal(err)
				}
				cs.Run(30 * time.Second)
				verifyCompactTreesMatchScratch(t, cs)
				for p, tree := range before {
					if tree == nil || cs.ringOfSlab[p] == overlay.NoIndex {
						continue
					}
					if cs.trees[p] == tree {
						kept++
					} else {
						rebuilt++
					}
				}
			}
			if kept == 0 || rebuilt == 0 {
				t.Fatalf("%d trees kept and %d rebuilt across churn; want both", kept, rebuilt)
			}
		})
	}
}

// verifyCompactTreesMatchScratch compares every alive slab's tree, as
// the traffic plane looks it up, with a from-scratch TreeOf, and checks
// that departed slabs have released theirs.
func verifyCompactTreesMatchScratch(t *testing.T, cs *CompactSystem) {
	t.Helper()
	for p, i := range cs.ringOfSlab {
		if i == overlay.NoIndex {
			if cs.trees[p] != nil {
				t.Fatalf("departed slab %d still holds a tree", p)
			}
			continue
		}
		live, err := cs.treeOfSlab(uint32(p))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := cs.TreeOf(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, fmt.Sprintf("slab %d", p), live, fresh)
	}
}

// requireSameTree asserts live and fresh are the same tree: same root,
// same leaves in order, identical paths link for link, same link set.
func requireSameTree(t *testing.T, who string, live, fresh *tomography.Tree) {
	t.Helper()
	if live.Root != fresh.Root || live.RootRouter != fresh.RootRouter {
		t.Fatalf("%s: root %s@%d live, %s@%d from scratch",
			who, live.Root.Short(), live.RootRouter, fresh.Root.Short(), fresh.RootRouter)
	}
	if len(live.Leaves) != len(fresh.Leaves) {
		t.Fatalf("%s: %d leaves live, %d from scratch", who, len(live.Leaves), len(fresh.Leaves))
	}
	for i := range fresh.Leaves {
		if live.Leaves[i].Node != fresh.Leaves[i].Node || live.Leaves[i].Router != fresh.Leaves[i].Router {
			t.Fatalf("%s leaf %d: %s live, %s from scratch",
				who, i, live.Leaves[i].Node.Short(), fresh.Leaves[i].Node.Short())
		}
		wantPath, ok := fresh.PathTo(fresh.Leaves[i].Node)
		if !ok {
			t.Fatalf("scratch tree lost leaf %s", fresh.Leaves[i].Node.Short())
		}
		gotPath, ok := live.PathTo(fresh.Leaves[i].Node)
		if !ok {
			t.Fatalf("live tree lost leaf %s", fresh.Leaves[i].Node.Short())
		}
		if len(gotPath) != len(wantPath) {
			t.Fatalf("%s → %s: path length %d live, %d from scratch",
				who, fresh.Leaves[i].Node.Short(), len(gotPath), len(wantPath))
		}
		for k := range wantPath {
			if gotPath[k] != wantPath[k] {
				t.Fatalf("%s → %s: link %d is %d live, %d from scratch",
					who, fresh.Leaves[i].Node.Short(), k, gotPath[k], wantPath[k])
			}
		}
	}
	liveLinks, freshLinks := live.Links(), fresh.Links()
	if len(liveLinks) != len(freshLinks) {
		t.Fatalf("%s: %d links live, %d from scratch", who, len(liveLinks), len(freshLinks))
	}
	for k := range freshLinks {
		if liveLinks[k] != freshLinks[k] {
			t.Fatalf("%s: link[%d] = %d live, %d from scratch", who, k, liveLinks[k], freshLinks[k])
		}
	}
}
