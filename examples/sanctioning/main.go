// Sanctioning: what happens after diagnosis (§3.6–§3.7).
//
// Concilium identifies faults; the network chooses the response. This
// example exercises the whole response surface: a forwarder that racks
// up verified accusations moves from good standing to local distrust to
// universal blacklist under the rate policy — while the paper's
// consistency rule keeps it in leaf sets until the blacklist is global.
// A second peer refuses to issue forwarding commitments, which no
// tomographic evidence can prove, so honest hosts fall back to
// Credence-style votes of no confidence.
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
	"concilium/internal/dht"
	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/overlay"
	"concilium/internal/reputation"
	"concilium/internal/sigcrypto"
	"concilium/internal/topology"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	cfg.ArchiveRetention = 5 * time.Minute
	rng := rand.New(rand.NewPCG(71, 73))
	sys, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		return err
	}
	if err := sys.StartProbing(); err != nil {
		return err
	}
	sys.Run(5 * time.Minute)

	// Accusation repository in the DHT, feeding the sanction policy.
	ring, err := overlay.NewRing(sys.Overlay.IDs())
	if err != nil {
		return err
	}
	store, err := dht.New(ring, dht.DefaultReplicas)
	if err != nil {
		return err
	}
	repo, err := dht.NewAccusationRepo(store, sys.KeyDir(), cfg.Blame.GuiltyThreshold)
	if err != nil {
		return err
	}
	feed := func(peer id.ID) ([]netsim.Time, error) {
		chains, err := repo.Fetch(peer)
		if err != nil {
			return nil, err
		}
		times := make([]netsim.Time, 0, len(chains))
		for _, c := range chains {
			times = append(times, c.Links[len(c.Links)-1].At)
		}
		return times, nil
	}
	policy, err := core.NewPolicy(core.DefaultPolicyConfig(), feed)
	if err != nil {
		return err
	}

	// Part 1: a dropper accumulates accusations and the sanction
	// escalates.
	src, dst, route, err := findRoute(sys)
	if err != nil {
		return err
	}
	dropper := route[1]
	if err := sys.SetBehavior(dropper, core.Behavior{DropsMessages: true}); err != nil {
		return err
	}
	fmt.Fprintf(w, "part 1: %s starts dropping messages\n", dropper.Short())
	for round := 1; round <= 3; round++ {
		rep, err := sys.SendMessage(src, dst)
		if err != nil {
			return err
		}
		if rep.Chain != nil {
			if err := repo.Publish(rep.Chain); err != nil {
				return err
			}
		}
		sys.Run(time.Minute)
		sanction, err := policy.Evaluate(dropper, sys.Sim.Now())
		if err != nil {
			return err
		}
		n, err := repo.Count(dropper)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  after drop %d: %d accusation(s) on record -> sanction: %s"+
			" (evict from leaf sets: %v, carry sensitive traffic: %v)\n",
			round, n, sanction, core.MayEvictFromLeafSet(sanction),
			core.MayForwardSensitive(sanction))
	}

	// Part 2: commitment refusal falls back to reputation votes.
	refuser := route[2]
	fmt.Fprintf(w, "\npart 2: %s refuses to issue forwarding commitments\n", refuser.Short())
	fmt.Fprintln(w, "  no tomographic evidence can prove refusal (§3.6), so honest")
	fmt.Fprintln(w, "  hosts cast signed votes of no confidence instead:")
	board := reputation.NewBoard()
	keysOf := func(x id.ID) sigcrypto.KeyPair {
		i, _ := sys.Overlay.IndexOf(x)
		return sys.Keys(i)
	}
	trusted := func(x id.ID) bool {
		i, ok := sys.Overlay.IndexOf(x)
		return ok && sys.Behavior(i).Honest()
	}
	voters := 0
	for _, nid := range sys.AliveIDs() {
		if nid == refuser || !trusted(nid) {
			continue
		}
		v := reputation.NewVote(keysOf(nid), nid, refuser, sys.Sim.Now())
		if err := board.Record(v, keysOf(nid).Public); err != nil {
			return err
		}
		voters++
		if voters == 5 {
			break
		}
	}
	fmt.Fprintf(w, "  trusted no-confidence votes: %d\n", board.NoConfidence(refuser, trusted))
	fmt.Fprintf(w, "  poor peer at quorum 3: %v\n", board.PoorPeer(refuser, trusted, 3))

	// Votes from a detected colluder do not count.
	colluder := dropper
	v := reputation.NewVote(keysOf(colluder), colluder, refuser, sys.Sim.Now())
	if err := board.Record(v, keysOf(colluder).Public); err != nil {
		return err
	}
	fmt.Fprintf(w, "  after a detected dropper votes too: still %d trusted votes\n",
		board.NoConfidence(refuser, trusted))
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
	return id.ID{}, id.ID{}, nil, errors.New("no multi-hop route; try another seed")
}
