// Recursive blame: the paper's §3.5 walkthrough, end to end.
//
// D drops A's message along the forwarding chain A → B → C → D → Z while
// every IP link on the chain is healthy. Naive next-hop blame would pin
// B. With recursive stewardship, B and C also awaited Z's
// acknowledgment: each produced its own verdict against its next hop,
// and pushing those verdicts upstream amends A's accusation until it
// lands on D — with B and C exonerated, and the whole chain
// independently verifiable by third parties, then published to the
// accusation DHT.
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
	"concilium/internal/overlay"
	"concilium/internal/sigcrypto"
	"concilium/internal/tomography"
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
	rng := rand.New(rand.NewPCG(11, 13))
	sys, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		return err
	}
	if err := sys.StartProbing(); err != nil {
		return err
	}
	sys.Run(5 * time.Minute)
	now := sys.Sim.Now()

	keysOf := func(x id.ID) sigcrypto.KeyPair {
		i, _ := sys.Overlay.IndexOf(x)
		return sys.Keys(i)
	}
	pathTo := func(from, to id.ID) ([]topology.LinkID, error) {
		tree, err := treeOf(sys, from)
		if err != nil {
			return nil, err
		}
		path, ok := tree.PathTo(to)
		if !ok {
			return nil, fmt.Errorf("%s has no path to %s", from.Short(), to.Short())
		}
		return path, nil
	}

	// Build the forwarding chain A → B → C → D from routing-peer
	// relationships, plus a destination Z past D.
	chainIDs, err := buildChain(sys, 5) // A, B, C, D, Z
	if err != nil {
		return err
	}
	a, b, c, d, z := chainIDs[0], chainIDs[1], chainIDs[2], chainIDs[3], chainIDs[4]
	fmt.Fprintf(w, "forwarding chain: %s -> %s -> %s -> %s -> %s\n",
		a.Short(), b.Short(), c.Short(), d.Short(), z.Short())
	fmt.Fprintf(w, "D (%s) silently drops the message; all chain links healthy\n\n", d.Short())

	// Every steward holds the next hop's signed forwarding commitment
	// (§3.6), batched onto availability-probe responses. The message is
	// the first A originates.
	const msgID = 1
	commit := func(from, via id.ID) core.Commitment {
		return core.NewCommitment(keysOf(via), from, via, z, msgID, now)
	}

	// Z never acknowledges, so A, B, and C each judge their next hop
	// over the IP links the message needed after leaving them.
	stewards := []id.ID{a, b, c}
	nexts := []id.ID{b, c, d}
	var accusations []core.Accusation
	fmt.Fprintln(w, "per-steward verdicts:")
	for i, steward := range stewards {
		span, err := pathTo(steward, nexts[i])
		if err != nil {
			return err
		}
		if i+1 < len(nexts) {
			onward, err := pathTo(nexts[i], nexts[i+1])
			if err != nil {
				return err
			}
			span = append(append([]topology.LinkID(nil), span...), onward...)
		}
		res, err := sys.Engine.Blame(nexts[i], span, now)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %s judges %s: blame %.2f -> %s\n",
			steward.Short(), nexts[i].Short(), res.Blame, verdictWord(res.Guilty))
		if !res.Guilty {
			return errors.New("unexpected innocent verdict; a chain link was probably probed down")
		}
		acc, err := core.NewAccusation(keysOf(steward), steward, res, msgID, span,
			commit(steward, nexts[i]))
		if err != nil {
			return err
		}
		accusations = append(accusations, acc)
	}

	// Revision: C pushes its verdict against D to B; B amends and pushes
	// to A. Mechanically, the verdicts chain into one amended accusation.
	chain, err := core.NewRevisionChain(accusations[:1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nA's original accusation blames: %s\n", chain.Culprit().Short())
	for _, downstream := range accusations[1:] {
		chain, err = chain.Extend(downstream)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  amended with %s's verdict -> blames %s\n",
			downstream.Accuser.Short(), chain.Culprit().Short())
	}
	fmt.Fprintf(w, "\nfinal culprit: %s (ground truth D: %v)\n", chain.Culprit().Short(), chain.Culprit() == d)
	for _, ex := range chain.Exonerated() {
		fmt.Fprintf(w, "exonerated: %s\n", ex.Short())
	}
	err = chain.Verify(sys.KeyDir(), cfg.Blame.GuiltyThreshold)
	fmt.Fprintf(w, "third-party verification of the amended accusation: %v\n", err == nil)

	// Publish into the accusation DHT; any peer considering D fetches it.
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
	if err := repo.Publish(chain); err != nil {
		return err
	}
	n, err := repo.Count(d)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "accusations on record against %s in the DHT: %d\n", d.Short(), n)
	return nil
}

// treeOf returns a member's tomography tree.
func treeOf(sys *core.CompactSystem, x id.ID) (*tomography.Tree, error) {
	i, ok := sys.Overlay.IndexOf(x)
	if !ok {
		return nil, fmt.Errorf("%s is not a member", x.Short())
	}
	return sys.CachedTree(i)
}

// buildChain walks routing-peer edges to assemble a chain of distinct
// nodes of the requested length.
func buildChain(sys *core.CompactSystem, length int) ([]id.ID, error) {
	var walk func(chain []id.ID) ([]id.ID, error)
	walk = func(chain []id.ID) ([]id.ID, error) {
		if len(chain) == length {
			return chain, nil
		}
		tree, err := treeOf(sys, chain[len(chain)-1])
		if err != nil {
			return nil, err
		}
		for _, leaf := range tree.Leaves {
			dup := false
			for _, seen := range chain {
				if seen == leaf.Node {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			out, err := walk(append(chain, leaf.Node))
			if out != nil || err != nil {
				return out, err
			}
		}
		return nil, nil
	}
	for _, start := range sys.AliveIDs() {
		out, err := walk([]id.ID{start})
		if out != nil || err != nil {
			return out, err
		}
	}
	return nil, errors.New("no forwarding chain of required length")
}

func verdictWord(guilty bool) string {
	if guilty {
		return "GUILTY"
	}
	return "innocent"
}
