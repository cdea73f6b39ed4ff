package overlay

import (
	"fmt"
	"sort"

	"concilium/internal/id"
)

// DefaultLeafSetPerSide is half the paper's 16-leaf set: 8 numerically
// closest peers on each side of the local identifier.
const DefaultLeafSetPerSide = 8

// LeafSet holds the peers with the numerically closest identifiers to
// the owner: the perSide closest successors (clockwise) and the perSide
// closest predecessors (counterclockwise). In sparse rings one peer can
// qualify on both sides; membership is the union, so a leaf set over a
// tiny overlay simply holds everyone — which is exactly Pastry's
// behavior.
type LeafSet struct {
	owner   id.ID
	perSide int
	members []id.ID // unordered union of both sides
	cw      []id.ID // perSide closest successors, ascending cw distance
	ccw     []id.ID // perSide closest predecessors, ascending ccw distance
}

// NewLeafSet creates an empty leaf set for owner.
func NewLeafSet(owner id.ID, perSide int) (*LeafSet, error) {
	if perSide <= 0 {
		return nil, fmt.Errorf("overlay: leaf set perSide %d must be positive", perSide)
	}
	return &LeafSet{owner: owner, perSide: perSide}, nil
}

// Owner returns the local identifier the set is centered on.
func (ls *LeafSet) Owner() id.ID { return ls.owner }

// PerSide returns the per-side capacity.
func (ls *LeafSet) PerSide() int { return ls.perSide }

// Insert offers a peer to the leaf set. It returns true if the peer was
// retained (it ranks among the perSide nearest on at least one side).
// The owner itself and duplicates are ignored.
func (ls *LeafSet) Insert(peer id.ID) bool {
	if peer == ls.owner || ls.contains(peer) {
		return false
	}
	ls.members = append(ls.members, peer)
	ls.rebuild()
	return ls.contains(peer)
}

// insertBulk offers whole groups of peers with a single rebuild at the
// end. It is equivalent to sequential Insert calls only when no offered
// peer would ever be pruned mid-sequence — BuildLeafSet's case, where
// every offer is a nearest ring neighbor of its own side.
func (ls *LeafSet) insertBulk(groups ...[]id.ID) {
	for _, g := range groups {
		for _, p := range g {
			if p == ls.owner || ls.contains(p) {
				continue
			}
			ls.members = append(ls.members, p)
		}
	}
	ls.rebuild()
}

// Remove drops a departed peer, reporting whether it was present.
func (ls *LeafSet) Remove(peer id.ID) bool {
	for i, x := range ls.members {
		if x == peer {
			ls.members = append(ls.members[:i], ls.members[i+1:]...)
			ls.rebuild()
			return true
		}
	}
	return false
}

// rebuild derives the side views and prunes members that rank on
// neither side.
func (ls *LeafSet) rebuild() {
	bySide := func(clockwise bool) []id.ID {
		out := append([]id.ID(nil), ls.members...)
		// Exact 128-bit distances: id.Spacing flattens to float64, so
		// identifiers a few ulps apart (an eclipse cluster) would tie and
		// the unstable sort could keep a peer that is not the closest.
		sort.Slice(out, func(i, j int) bool {
			if clockwise {
				return id.Less(id.Clockwise(ls.owner, out[i]), id.Clockwise(ls.owner, out[j]))
			}
			return id.Less(id.Clockwise(out[i], ls.owner), id.Clockwise(out[j], ls.owner))
		})
		if len(out) > ls.perSide {
			out = out[:ls.perSide]
		}
		return out
	}
	ls.cw = bySide(true)
	ls.ccw = bySide(false)
	keep := make(map[id.ID]bool, len(ls.cw)+len(ls.ccw))
	for _, x := range ls.cw {
		keep[x] = true
	}
	for _, x := range ls.ccw {
		keep[x] = true
	}
	kept := ls.members[:0]
	for _, x := range ls.members {
		if keep[x] {
			kept = append(kept, x)
		}
	}
	ls.members = kept
}

func (ls *LeafSet) contains(peer id.ID) bool {
	for _, x := range ls.members {
		if x == peer {
			return true
		}
	}
	return false
}

func (ls *LeafSet) containsSide(side []id.ID, peer id.ID) bool {
	for _, x := range side {
		if x == peer {
			return true
		}
	}
	return false
}

// Len returns the number of distinct leaves currently held.
func (ls *LeafSet) Len() int { return len(ls.members) }

// All returns every leaf. The slice is fresh.
func (ls *LeafSet) All() []id.ID {
	return append([]id.ID(nil), ls.members...)
}

// AppendAll appends every leaf to out and returns the extended slice —
// the allocation-free variant of All.
func (ls *LeafSet) AppendAll(out []id.ID) []id.ID {
	return append(out, ls.members...)
}

// Covers reports whether target falls inside the arc spanned by the
// leaf set (between the farthest predecessor and farthest successor).
// Pastry delivers directly from the leaf set in that range.
func (ls *LeafSet) Covers(target id.ID) bool {
	if len(ls.cw) == 0 || len(ls.ccw) == 0 {
		return false
	}
	lo := ls.ccw[len(ls.ccw)-1]
	hi := ls.cw[len(ls.cw)-1]
	return target == ls.owner || id.Between(target, lo, hi)
}

// Closest returns the leaf (or the owner) numerically closest to target.
func (ls *LeafSet) Closest(target id.ID) (id.ID, bool) {
	best := ls.owner
	for _, x := range ls.members {
		if id.Closer(x, best, target) {
			best = x
		}
	}
	return best, true
}

// MeanSpacing returns the average inter-identifier gap across the arc the
// leaf set spans (owner included). Castro's density test and the
// network-size estimator both consume this.
func (ls *LeafSet) MeanSpacing() (float64, error) {
	if ls.Len() == 0 {
		return 0, fmt.Errorf("overlay: mean spacing of empty leaf set")
	}
	// The owner plus its leaves partition an arc of the ring. Order them
	// by clockwise distance from the farthest counterclockwise point; the
	// mean gap is the arc length over the number of segments.
	var start id.ID
	if len(ls.ccw) > 0 {
		start = ls.ccw[len(ls.ccw)-1]
	} else {
		start = ls.owner
	}
	all := make([]id.ID, 0, ls.Len()+1)
	all = append(all, ls.owner)
	all = append(all, ls.members...)
	sort.Slice(all, func(i, j int) bool {
		return id.Spacing(start, all[i]) < id.Spacing(start, all[j])
	})
	arc := id.Spacing(start, all[len(all)-1])
	segments := len(all) - 1
	if segments <= 0 || arc <= 0 {
		return 0, fmt.Errorf("overlay: leaf set spans no arc")
	}
	return arc / float64(segments), nil
}

// EstimateN estimates the total overlay population from leaf-set density
// (Mahajan et al.): if k+1 identifiers span an arc that is f of the ring,
// the population is about (k+1)/f.
func (ls *LeafSet) EstimateN() (float64, error) {
	spacing, err := ls.MeanSpacing()
	if err != nil {
		return 0, err
	}
	if spacing <= 0 {
		return 0, fmt.Errorf("overlay: degenerate leaf spacing")
	}
	return id.RingSize / spacing, nil
}
