package core

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"concilium/internal/id"
	"concilium/internal/overlay"
)

// TestBuildCompactSystemWorkerInvariant pins the parexec contract for
// the compact build: the canonical snapshot is byte-identical no matter
// how many workers constructed it.
func TestBuildCompactSystemWorkerInvariant(t *testing.T) {
	t.Parallel()
	var want uint64
	for _, workers := range []int{1, 2, 3} {
		cs := buildTestSystem(t, func(c *SystemConfig) { c.Workers = workers })
		got := cs.CanonicalHash()
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: canonical hash %#x, workers=1 gave %#x", workers, got, want)
		}
	}
}

// TestCompactCanonicalGolden pins the canonical hash at a fixed config
// and seed. Any change to the build's decisions or the serialization
// layout must update it deliberately; it has held unchanged since the
// format landed, through the traffic-plane port and the removal of the
// pointer-per-node plane.
func TestCompactCanonicalGolden(t *testing.T) {
	t.Parallel()
	cs := buildTestSystem(t, nil)
	const want = uint64(0xc85872ef5cc0b6eb)
	if got := cs.CanonicalHash(); got != want {
		t.Fatalf("compact canonical hash %#x, pinned %#x", got, want)
	}
}

// TestCompactSystemChurnDeterministic runs the same build plus the same
// fail/join schedule on two same-seeded systems and requires identical
// canonical snapshots throughout.
func TestCompactSystemChurnDeterministic(t *testing.T) {
	t.Parallel()
	run := func() *CompactSystem {
		cs := buildTestSystem(t, nil)
		hosts := cs.Topo.EndHosts()
		for step := 0; step < 8; step++ {
			if step%3 == 2 {
				if _, err := cs.JoinNode(hosts[(step*37)%len(hosts)]); err != nil {
					t.Fatal(err)
				}
			} else {
				victim := cs.NodeID(uint32((step * 13) % cs.Size()))
				if err := cs.FailNode(victim); err != nil {
					t.Fatal(err)
				}
			}
		}
		return cs
	}
	a, b := run(), run()
	ha, hb := a.CanonicalHash(), b.CanonicalHash()
	if ha != hb {
		t.Fatalf("same seed, same churn: hashes %#x vs %#x", ha, hb)
	}
	if !bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
		t.Fatal("same seed, same churn: canonical snapshots differ")
	}
}

// TestCompactChurnSecureInvariant checks the repair quality bound the
// paper's constrained table gives for free: the secure fill is rng-free,
// so after arbitrary churn every survivor's secure table must equal a
// from-scratch fill over the current membership.
func TestCompactChurnSecureInvariant(t *testing.T) {
	t.Parallel()
	cs := buildTestSystem(t, nil)
	for step := 0; step < 6; step++ {
		victim := cs.NodeID(uint32((step * 29) % cs.Size()))
		if err := cs.FailNode(victim); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := overlay.NewCompact(cs.Overlay.IDs(), cs.Overlay.PerSide())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5)) // consumed by standard fills only
	for i := 0; i < fresh.Size(); i++ {
		fresh.FillNode(uint32(i), rng)
	}
	for i := uint32(0); i < uint32(cs.Size()); i++ {
		for row := 0; row < id.Digits; row++ {
			for col := byte(0); col < id.Base; col++ {
				want, wantOK := fresh.SecureSlot(i, row, col)
				got, gotOK := cs.Overlay.SecureSlot(i, row, col)
				if gotOK != wantOK || (gotOK && got != want) {
					t.Fatalf("node %d: repaired secure slot (%d,%d) diverges from fresh fill", i, row, col)
				}
			}
		}
	}
}

// TestCompactSystemFootprint bounds the per-node resident cost of the
// compact core at test scale: identifier, slabs (32+64+64 B of key and
// signature material), routing state, and indices. The pointer-per-node
// representation it replaced spent ~40KB/node at the same scale.
func TestCompactSystemFootprint(t *testing.T) {
	t.Parallel()
	cs := buildTestSystem(t, nil)
	perNode := cs.Footprint() / int64(cs.Size())
	if perNode <= 0 || perNode > 2048 {
		t.Fatalf("compact footprint %d bytes/node, want (0, 2048]", perNode)
	}
}

// TestCompactFailNodeGuards checks FailNode's refusals: unknown nodes,
// and shrinking the overlay below four members.
func TestCompactFailNodeGuards(t *testing.T) {
	t.Parallel()
	cs := buildTestSystem(t, nil)
	if err := cs.FailNode(id.ID{1, 2, 3}); err == nil {
		t.Fatal("FailNode accepted an unknown identifier")
	}
	for cs.Size() > 4 {
		if err := cs.FailNode(cs.NodeID(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.FailNode(cs.NodeID(0)); err == nil {
		t.Fatal("FailNode shrank the overlay below 4 nodes")
	}
}
