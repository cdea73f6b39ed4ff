package overlay

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"concilium/internal/id"
)

// buildBoth constructs the legacy per-node states and the compact core
// over the same membership, with identical per-node rng substreams, so
// every structural comparison is exact.
func buildBoth(t *testing.T, n int, seed uint64) (map[id.ID]*RoutingState, *Ring, *Compact) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	members := make([]id.ID, n)
	for i := range members {
		members[i] = id.Random(rng)
	}
	ring, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	legacy := make(map[id.ID]*RoutingState, n)
	for i, x := range ring.Members() {
		st, err := BuildRoutingState(x, ring, rand.New(rand.NewPCG(seed, uint64(2*i+1))))
		if err != nil {
			t.Fatal(err)
		}
		legacy[x] = st
	}
	c, err := NewCompact(members, DefaultLeafSetPerSide)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Size(); i++ {
		c.FillNode(uint32(i), rand.New(rand.NewPCG(seed, uint64(2*i+1))))
	}
	return legacy, ring, c
}

// compareStates checks every node's compact state against its legacy
// counterpart. exactLeafOrder toggles between exact-sequence and
// same-set leaf comparison: churn repairs converge to the same members
// but not necessarily the same insertion order.
func compareStates(t *testing.T, legacy map[id.ID]*RoutingState, c *Compact, exactLeafOrder bool) {
	t.Helper()
	for i := 0; i < c.Size(); i++ {
		self := c.ID(uint32(i))
		st := legacy[self]
		if st == nil {
			t.Fatalf("no legacy state for compact member %s", self.Short())
		}
		var leafIdx []uint32
		leafIdx = c.AppendLeafIndices(uint32(i), leafIdx)
		gotLeaves := make([]id.ID, len(leafIdx))
		for p, j := range leafIdx {
			gotLeaves[p] = c.ID(j)
		}
		wantLeaves := append([]id.ID(nil), st.Leaf.members...)
		if !exactLeafOrder {
			sort.Slice(gotLeaves, func(a, b int) bool { return id.Less(gotLeaves[a], gotLeaves[b]) })
			sort.Slice(wantLeaves, func(a, b int) bool { return id.Less(wantLeaves[a], wantLeaves[b]) })
		}
		if len(gotLeaves) != len(wantLeaves) {
			t.Fatalf("node %s: %d compact leaves, legacy %d", self.Short(), len(gotLeaves), len(wantLeaves))
		}
		for p := range gotLeaves {
			if gotLeaves[p] != wantLeaves[p] {
				t.Fatalf("node %s: leaf %d = %s, legacy %s", self.Short(), p, gotLeaves[p], wantLeaves[p])
			}
		}
		for row := 0; row < id.Digits; row++ {
			for col := byte(0); col < id.Base; col++ {
				wantSec, wantOK := st.Secure.Slot(row, col)
				gotIdx, gotOK := c.SecureSlot(uint32(i), row, col)
				if gotOK != wantOK || (gotOK && c.ID(gotIdx) != wantSec) {
					t.Fatalf("node %s: secure slot (%d,%d) mismatch", self.Short(), row, col)
				}
				wantStd, wantOK := st.Standard.Slot(row, col)
				gotIdx, gotOK = c.StandardSlot(uint32(i), row, col)
				if gotOK != wantOK || (gotOK && c.ID(gotIdx) != wantStd) {
					t.Fatalf("node %s: standard slot (%d,%d) mismatch", self.Short(), row, col)
				}
			}
		}
		if got, want := c.SecureOccupancy(uint32(i)), st.Secure.Occupancy(); got != want {
			t.Fatalf("node %s: secure occupancy %d, legacy %d", self.Short(), got, want)
		}
		if exactLeafOrder {
			var peerIdx []uint32
			peerIdx = c.AppendRoutingPeers(uint32(i), peerIdx)
			wantPeers := st.RoutingPeers()
			if len(peerIdx) != len(wantPeers) {
				t.Fatalf("node %s: %d routing peers, legacy %d", self.Short(), len(peerIdx), len(wantPeers))
			}
			for p, j := range peerIdx {
				if c.ID(j) != wantPeers[p] {
					t.Fatalf("node %s: routing peer %d = %s, legacy %s",
						self.Short(), p, c.ID(j).Short(), wantPeers[p].Short())
				}
			}
		}
	}
}

// compareHops checks next-hop and full-route agreement for a mix of
// member and off-ring targets.
func compareHops(t *testing.T, legacy map[id.ID]*RoutingState, c *Compact, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 99))
	targets := make([]id.ID, 0, 64)
	for p := 0; p < 24; p++ {
		targets = append(targets, c.ID(uint32(rng.IntN(c.Size()))))
		targets = append(targets, id.Random(rng))
		near := c.ID(uint32(rng.IntN(c.Size())))
		targets = append(targets, near.WithDigit(id.Digits-1, byte(rng.IntN(id.Base))))
	}
	for trial := 0; trial < 48; trial++ {
		i := uint32(rng.IntN(c.Size()))
		self := c.ID(i)
		target := targets[rng.IntN(len(targets))]
		wantHop, wantOK := legacy[self].NextHopSecure(target)
		gotIdx, gotOK := c.NextHopSecure(i, target)
		if gotOK != wantOK || (gotOK && c.ID(gotIdx) != wantHop) {
			t.Fatalf("NextHopSecure(%s, %s): compact %v, legacy %v", self.Short(), target.Short(), gotOK, wantOK)
		}
		wantHop, wantOK = legacy[self].NextHopStandard(target)
		gotIdx, gotOK = c.NextHopStandard(i, target)
		if gotOK != wantOK || (gotOK && c.ID(gotIdx) != wantHop) {
			t.Fatalf("NextHopStandard(%s, %s) mismatch", self.Short(), target.Short())
		}
		wantRoute, wantErr := RouteSecure(legacy, self, target, 0)
		gotIdxRoute, gotErr := c.AppendRouteSecure(i, target, 0, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("route %s->%s: compact err %v, legacy err %v", self.Short(), target.Short(), gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if len(gotIdxRoute) != len(wantRoute) {
			t.Fatalf("route %s->%s: %d hops, legacy %d", self.Short(), target.Short(), len(gotIdxRoute), len(wantRoute))
		}
		for p, j := range gotIdxRoute {
			if c.ID(j) != wantRoute[p] {
				t.Fatalf("route %s->%s: hop %d = %s, legacy %s",
					self.Short(), target.Short(), p, c.ID(j).Short(), wantRoute[p].Short())
			}
		}
	}
}

func TestCompactMatchesLegacyBuild(t *testing.T) {
	t.Parallel()
	for _, n := range []int{3, 5, 17, 120} {
		legacy, _, c := buildBoth(t, n, uint64(1000+n))
		compareStates(t, legacy, c, true)
		compareHops(t, legacy, c, uint64(n))
	}
}

// joinBoth admits peer on both representations: the legacy ring grows,
// the newcomer fills from scratch, and every existing node folds it in.
func joinBoth(t *testing.T, legacy map[id.ID]*RoutingState, ring *Ring, c *Compact, peer id.ID, legacyRng, compactRng *rand.Rand) *Ring {
	t.Helper()
	grown, err := ring.WithMember(peer)
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildRoutingState(peer, grown, legacyRng)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range grown.Members() {
		if x == peer {
			continue
		}
		if err := legacy[x].ApplyJoin(peer); err != nil {
			t.Fatal(err)
		}
	}
	legacy[peer] = st
	if _, err := c.ApplyJoin(peer, compactRng); err != nil {
		t.Fatal(err)
	}
	return grown
}

// requireExactLeaves checks every legacy leaf set against the ring: each
// side must be exactly the perSide nearest members in that direction.
func requireExactLeaves(t *testing.T, legacy map[id.ID]*RoutingState, ring *Ring) {
	t.Helper()
	for _, x := range ring.Members() {
		ls := legacy[x].Leaf
		for _, side := range []struct {
			name      string
			got, want []id.ID
		}{
			{"clockwise", ls.cw, ring.NeighborsClockwise(x, ls.perSide)},
			{"counterclockwise", ls.ccw, ring.NeighborsCounterClockwise(x, ls.perSide)},
		} {
			if len(side.got) != len(side.want) {
				t.Fatalf("node %s: %d %s leaves, ring has %d", x.Short(), len(side.got), side.name, len(side.want))
			}
			for p := range side.want {
				if side.got[p] != side.want[p] {
					t.Fatalf("node %s: %s leaf %d = %s, ring neighbour %s",
						x.Short(), side.name, p, side.got[p].Short(), side.want[p].Short())
				}
			}
		}
	}
}

func TestCompactMatchesLegacyChurn(t *testing.T) {
	t.Parallel()
	const seed = uint64(77)
	t.Run("random", func(t *testing.T) {
		legacy, ring, c := buildBoth(t, 90, seed)
		legacyRng := rand.New(rand.NewPCG(seed, 501))
		compactRng := rand.New(rand.NewPCG(seed, 501))
		idRng := rand.New(rand.NewPCG(seed, 502))
		pick := rand.New(rand.NewPCG(seed, 503))

		for step := 0; step < 10; step++ {
			if step%3 == 2 {
				// Join a fresh identifier.
				peer := id.Random(idRng)
				if ring.Contains(peer) {
					continue
				}
				ring = joinBoth(t, legacy, ring, c, peer, legacyRng, compactRng)
			} else {
				// Depart a random member.
				peer := ring.Members()[pick.IntN(ring.Size())]
				shrunk, err := ring.Without(map[id.ID]bool{peer: true})
				if err != nil {
					t.Fatal(err)
				}
				ring = shrunk
				delete(legacy, peer)
				for _, x := range ring.Members() {
					if err := legacy[x].ApplyDeparture(peer, ring, legacyRng); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.ApplyDeparture(peer, compactRng); err != nil {
					t.Fatal(err)
				}
			}
			if c.Size() != ring.Size() {
				t.Fatalf("step %d: compact size %d, ring %d", step, c.Size(), ring.Size())
			}
			compareStates(t, legacy, c, false)
			requireExactLeaves(t, legacy, ring)
		}
		compareHops(t, legacy, c, seed)
	})
	// The adversary campaign's eclipse placement: k identifiers packed
	// clockwise of a victim at victim + (j+1)·1,000,003 in the low word.
	// Their gaps sit far below float64 resolution of a 128-bit ring
	// distance, so only an exact distance order keeps the leaf sets the
	// nearest ring neighbours.
	for _, k := range []int{1, 4, 10, 19} {
		t.Run(fmt.Sprintf("eclipse-k%d", k), func(t *testing.T) {
			legacy, ring, c := buildBoth(t, 90, seed)
			legacyRng := rand.New(rand.NewPCG(seed, 601))
			compactRng := rand.New(rand.NewPCG(seed, 601))
			victim := ring.Members()[rand.New(rand.NewPCG(seed, uint64(k))).IntN(ring.Size())]
			for j := 0; j < k; j++ {
				var delta id.ID
				binary.BigEndian.PutUint64(delta[8:], uint64(j+1)*1_000_003)
				ring = joinBoth(t, legacy, ring, c, id.Add(victim, delta), legacyRng, compactRng)
				compareStates(t, legacy, c, false)
				requireExactLeaves(t, legacy, ring)
			}
			compareHops(t, legacy, c, seed+uint64(k))
		})
	}
}

func TestDenseRowsFor(t *testing.T) {
	t.Parallel()
	cases := []struct{ n, want int }{
		{1, 1}, {2, 1}, {16, 1}, {17, 2}, {256, 2}, {257, 3},
		{1000, 3}, {20000, 4}, {100000, 5}, {1000000, 5}, {1048576, 5}, {1048577, 6},
	}
	for _, tc := range cases {
		if got := denseRowsFor(tc.n); got != tc.want {
			t.Errorf("denseRowsFor(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestCompactFootprintSmall(t *testing.T) {
	t.Parallel()
	_, _, c := buildBoth(t, 120, 9)
	perNode := c.Footprint() / int64(c.Size())
	// Two tables at denseRows(120)=2 dense rows of 16 uint32 slots plus
	// sparse tails and the 16-byte identifier: should be well under 1KB
	// per node, where the legacy representation spends ~41KB.
	if perNode <= 0 || perNode > 1024 {
		t.Fatalf("compact footprint %d bytes/node, want (0, 1024]", perNode)
	}
}

func TestCompactValidate(t *testing.T) {
	t.Parallel()
	_, _, c := buildBoth(t, 120, 5)
	for i := 0; i < c.Size(); i++ {
		if err := c.Validate(uint32(i)); err != nil {
			t.Fatalf("fresh node %d: %v", i, err)
		}
	}
	if err := c.Validate(uint32(c.Size())); err == nil {
		t.Error("out-of-range node accepted")
	}
	// Corrupt one occupied slot of each table: first with a member that
	// belongs in another slot, then with a position off the ring.
	for _, tab := range []*compactTable{&c.secure, &c.standard} {
		var row int
		var col byte
		var peer uint32
		found := false
		tab.forEach(c.denseRows, 0, func(r int, cl byte, p uint32) {
			if !found {
				row, col, peer, found = r, cl, p, true
			}
		})
		if !found {
			t.Fatal("node 0 has an empty table")
		}
		tab.set(c.denseRows, 0, row, col, 0) // node 0 itself: wrong prefix
		if err := c.Validate(0); err == nil {
			t.Error("misplaced occupant accepted")
		}
		tab.set(c.denseRows, 0, row, col, uint32(c.Size()))
		if err := c.Validate(0); err == nil {
			t.Error("out-of-range occupant accepted")
		}
		tab.set(c.denseRows, 0, row, col, peer)
		if err := c.Validate(0); err != nil {
			t.Fatalf("restored slot rejected: %v", err)
		}
	}
}
