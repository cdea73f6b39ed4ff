// Quickstart: build a small Concilium deployment, break things, and
// watch the diagnosis.
//
// It constructs a simulated IP topology with a secure Pastry overlay on
// top, starts collaborative tomographic probing, then demonstrates the
// two failure modes the paper distinguishes: a message dropped by a
// failed IP link (the network is blamed) and a message dropped by a
// misbehaving forwarder (the forwarder is blamed, with a self-verifying
// accusation chain).
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"os"
	"time"

	"concilium/internal/core"
	"concilium/internal/id"
	"concilium/internal/topology"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// 1. Build the deployment: IP topology, CA, overlay.
	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	cfg.ArchiveRetention = 5 * time.Minute
	rng := rand.New(rand.NewPCG(2026, 7))
	sys, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "overlay of %d nodes atop %d routers / %d links\n",
		sys.Size(), sys.Topo.NumRouters(), sys.Topo.NumLinks())

	// 2. Start collaborative probing and let the archive warm up.
	if err := sys.StartProbing(); err != nil {
		return err
	}
	sys.Run(5 * time.Minute)
	fmt.Fprintf(w, "after 5 virtual minutes: %d disseminated probe records\n\n", sys.Archive.Size())

	// Find a multi-hop route to play with.
	src, dst, route, err := findRoute(sys)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "route: %s\n\n", routeString(route))

	// 3. Scenario A — the network drops the message.
	i, _ := sys.Overlay.IndexOf(route[0])
	tree, err := sys.CachedTree(i)
	if err != nil {
		return err
	}
	path, ok := tree.PathTo(route[1])
	if !ok {
		return fmt.Errorf("%s has no path to its next hop", route[0].Short())
	}
	if err := sys.Net.SetLinkDown(path[0], true); err != nil {
		return err
	}
	sys.Run(3 * time.Minute) // probes observe the outage
	rep, err := sys.SendMessage(src, dst)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scenario A: IP link %d failed\n", path[0])
	fmt.Fprintf(w, "  delivered: %v, network blamed: %v (correct: the overlay peers are innocent)\n\n",
		rep.Delivered, rep.NetworkBlamed)
	if err := sys.Net.SetLinkDown(path[0], false); err != nil {
		return err
	}
	sys.Run(3 * time.Minute) // probes observe the repair

	// 4. Scenario B — a forwarder drops the message.
	dropper := route[1]
	if err := sys.SetBehavior(dropper, core.Behavior{DropsMessages: true}); err != nil {
		return err
	}
	rep, err = sys.SendMessage(src, dst)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scenario B: forwarder %s silently drops\n", dropper.Short())
	fmt.Fprintf(w, "  delivered: %v, culprit: %s (ground truth: %s)\n",
		rep.Delivered, rep.Culprit.Short(), dropper.Short())
	if rep.Chain != nil {
		err := rep.Chain.Verify(sys.KeyDir(), cfg.Blame.GuiltyThreshold)
		fmt.Fprintf(w, "  accusation chain of %d link(s) verifies independently: %v\n",
			len(rep.Chain.Links), err == nil)
	}
	return nil
}

// findRoute sends test messages between members, in membership order,
// until one takes a route of at least two overlay hops.
func findRoute(sys *core.CompactSystem) (src, dst id.ID, route []id.ID, err error) {
	members := sys.AliveIDs()
	for _, a := range members {
		for _, b := range members {
			if a == b {
				continue
			}
			rep, err := sys.SendMessage(a, b)
			if err != nil || len(rep.Route) < 3 {
				continue
			}
			return a, b, rep.Route, nil
		}
	}
	return id.ID{}, id.ID{}, nil, errors.New("no multi-hop route in this overlay; try another seed")
}

func routeString(route []id.ID) string {
	s := ""
	for i, hop := range route {
		if i > 0 {
			s += " -> "
		}
		s += hop.Short()
	}
	return s
}
