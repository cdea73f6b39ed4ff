package core

import (
	"math/rand/v2"
	"testing"

	"concilium/internal/id"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

// probeRecord builds an archive record for filter tests.
func probeRecord(prober id.ID, up bool) tomography.ProbeRecord {
	return tomography.ProbeRecord{Prober: prober, Up: up}
}

// buildTestSystem builds the small test deployment every
// protocol test shares.
func buildTestSystem(t *testing.T, mutate func(*SystemConfig)) *CompactSystem {
	t.Helper()
	cfg := DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5 // small topology: take half the hosts
	if mutate != nil {
		mutate(&cfg)
	}
	cs, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(201, 203)))
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// findMultiHopPair returns the first src/dst, in membership
// order, whose secure route has at least minHops overlay hops.
func findMultiHopPair(t *testing.T, cs *CompactSystem, minHops int) (id.ID, id.ID, []id.ID) {
	t.Helper()
	alive := cs.AliveIDs()
	var idx []uint32
	for _, src := range alive {
		si, _ := cs.Overlay.IndexOf(src)
		for _, dst := range alive {
			if src == dst {
				continue
			}
			var err error
			idx, err = cs.Overlay.AppendRouteSecure(si, dst, 0, idx[:0])
			if err != nil || len(idx) < minHops+1 {
				continue
			}
			route := make([]id.ID, len(idx))
			for h, i := range idx {
				route[h] = cs.NodeID(i)
			}
			return src, dst, route
		}
	}
	t.Skip("no multi-hop route in this small overlay")
	return id.ID{}, id.ID{}, nil
}

// peerPath returns the IP path from member from to its routing peer to.
func peerPath(t *testing.T, cs *CompactSystem, from, to id.ID) []topology.LinkID {
	t.Helper()
	p, ok := cs.slabOfID(from)
	if !ok {
		t.Fatalf("unknown member %s", from.Short())
	}
	path, err := cs.pathToPeer(p, from, to)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// setDropper marks nid as a plain message dropper.
func setDropper(t *testing.T, cs *CompactSystem, nid id.ID) {
	t.Helper()
	if err := cs.SetBehavior(nid, Behavior{DropsMessages: true}); err != nil {
		t.Fatal(err)
	}
}
