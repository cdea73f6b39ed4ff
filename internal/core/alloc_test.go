package core

import (
	"math/rand/v2"
	"testing"
	"time"

	"concilium/internal/netsim"
	"concilium/internal/topology"
)

// sendMessageAllocBudget is the per-send allocation ceiling on a warm
// system's delivered-and-acked path. Before the zero-alloc rework this
// path cost ~144 allocs (routing-state map rebuilt per message, fresh
// hop-path and span slices per judgment); with cached trees and
// scratch arenas it costs 2 (the report and its copied-out route, both
// of which escape). The budget leaves slack for runtime
// noise while staying far under the old cost — if a change pushes past
// it, some per-send allocation crept back into the hot path.
const sendMessageAllocBudget = 8

// TestCompactSendMessageAllocBudget locks in the zero-alloc diagnosis
// hot path: repeated sends on a warm 40-host system must stay within
// the allocation budget. The delivered path should cost exactly 2
// allocations (the report and its copied-out route).
func TestCompactSendMessageAllocBudget(t *testing.T) {
	cfg := SystemConfig{
		Topology:        topology.TestConfig(),
		OverlayFraction: 0.5,
		Blame:           DefaultBlameConfig(),
		Window:          DefaultWindowConfig(),
		MaxProbeTime:    2 * time.Minute,
		Failures:        netsim.DefaultFailureConfig(),
	}
	rng := rand.New(rand.NewPCG(7, 11))
	cs, err := BuildCompactSystem(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.StartProbing(); err != nil {
		t.Fatal(err)
	}
	cs.Run(10 * time.Minute)
	alive := cs.AliveIDs()
	src, dst := alive[0], alive[len(alive)/2]
	// One warmup send grows the scratch arenas to steady-state size.
	if _, err := cs.SendMessage(src, dst); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, err := cs.SendMessage(src, dst); err != nil {
			t.Fatal(err)
		}
	})
	if n > sendMessageAllocBudget {
		t.Errorf("compact SendMessage allocates %.1f/op on a warm system, budget %d", n, sendMessageAllocBudget)
	}
}
