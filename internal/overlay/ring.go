// Package overlay implements the structured peer-to-peer substrate
// Concilium runs on: a Pastry-style overlay with leaf sets and jump
// tables, plus the secure-routing variant of Castro et al. (§2) in which
// each jump-table slot is constrained to the live host closest to that
// slot's target point. The package is pure data structure and routing
// logic; signing, validation, and fault attribution live in
// internal/core.
package overlay

import (
	"fmt"
	"sort"

	"concilium/internal/id"
)

// Ring is the sorted global membership view used to construct correct
// routing state and to answer "who is the closest live host to point p"
// queries. Experiments build it from the certificate authority's
// assignments; a malicious host's *advertised* state can then be compared
// against what the ring says it should be.
type Ring struct {
	ids []id.ID
	// pairs shadows ids in decomposed word-pair form. Binary searches
	// compare pairs instead of re-decomposing both operands per probe,
	// which is where table construction spends its time at large N.
	pairs []id.Pair
}

// NewRing builds a ring over the given members. Duplicates are rejected.
func NewRing(members []id.ID) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("overlay: ring needs at least one member")
	}
	ids := make([]id.ID, len(members))
	copy(ids, members)
	sort.Slice(ids, func(i, j int) bool { return id.Less(ids[i], ids[j]) })
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return nil, fmt.Errorf("overlay: duplicate member %s", ids[i])
		}
	}
	return &Ring{ids: ids, pairs: makePairs(ids)}, nil
}

func makePairs(ids []id.ID) []id.Pair {
	pairs := make([]id.Pair, len(ids))
	for i, x := range ids {
		pairs[i] = x.Pair()
	}
	return pairs
}

// Size returns the number of members.
func (r *Ring) Size() int { return len(r.ids) }

// Members returns the members in ascending identifier order. The slice
// is shared and must not be modified.
func (r *Ring) Members() []id.ID { return r.ids }

// Contains reports membership.
func (r *Ring) Contains(x id.ID) bool {
	_, ok := r.IndexOf(x)
	return ok
}

// IndexOf returns x's position in the sorted member slice, by binary
// search over ids — the ring keeps no side map, so membership costs
// O(log N) and zero bytes.
func (r *Ring) IndexOf(x id.ID) (int, bool) {
	at := r.searchGE(x)
	if at < len(r.ids) && r.ids[at] == x {
		return at, true
	}
	return 0, false
}

// Without returns a new ring excluding the given members — the view an
// adversary presents under a suppression attack, or the system after
// departures. It fails if nothing remains.
func (r *Ring) Without(excluded map[id.ID]bool) (*Ring, error) {
	kept := make([]id.ID, 0, len(r.ids))
	for _, x := range r.ids {
		if !excluded[x] {
			kept = append(kept, x)
		}
	}
	return NewRing(kept)
}

// searchGE returns the index of the first member >= x, possibly len(ids).
func (r *Ring) searchGE(x id.ID) int {
	return r.searchGEPair(x.Pair())
}

// searchGEPair is searchGE over the decomposed member view, with the
// binary search inlined: sort.Search's closure indirection and id.Cmp's
// per-probe byte decomposition both show up at million-member scale.
func (r *Ring) searchGEPair(xp id.Pair) int {
	lo, hi := 0, len(r.pairs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.pairs[m].Less(xp) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Closest returns the member with minimal ring distance to target,
// excluding any members in skip (which may be nil). The boolean is false
// if every member was skipped.
func (r *Ring) Closest(target id.ID, skip map[id.ID]bool) (id.ID, bool) {
	n := len(r.ids)
	pos := r.searchGE(target) % n
	best, found := id.ID{}, false
	// Walk outward from the insertion point in both directions. The
	// closest non-skipped member is within len(skip)+1 steps of pos on
	// one side or the other.
	limit := n
	for step := 0; step < limit; step++ {
		for _, cand := range []id.ID{
			r.ids[((pos+step)%n+n)%n],
			r.ids[((pos-1-step)%n+n)%n],
		} {
			if skip[cand] {
				continue
			}
			if !found || id.Closer(cand, best, target) {
				best, found = cand, true
			}
		}
		if found && step > len(skip) {
			break
		}
	}
	return best, found
}

// AppendNearest appends the min(k, Size) members nearest target to out,
// nearest first under id.Closer (ties favour the smaller identifier),
// and returns the extended slice. Members within any ring distance of
// target form an arc around its insertion point, so two fronts walk
// outward from it — clockwise from the first member >= target, counter-
// clockwise from the one before — and each step takes the closer front.
// A member past the antipode on one front is always reached first by
// the other, so the fronts never cross before k members are taken.
// O(log N + k), allocating only if out lacks capacity.
func (r *Ring) AppendNearest(target id.ID, k int, out []id.ID) []id.ID {
	n := len(r.ids)
	if k > n {
		k = n
	}
	cw := r.searchGE(target) % n
	ccw := (cw + n - 1) % n
	for ; k > 0; k-- {
		if id.Closer(r.ids[ccw], r.ids[cw], target) {
			out = append(out, r.ids[ccw])
			ccw = (ccw + n - 1) % n
		} else {
			out = append(out, r.ids[cw])
			cw = (cw + 1) % n
		}
	}
	return out
}

// prefixRange returns the numeric bounds [lo, hi] of identifiers sharing
// the first prefixLen digits of base.
func prefixRange(base id.ID, prefixLen int) (lo, hi id.ID) {
	lp, hp := base.Pair().PrefixRange(prefixLen)
	return lp.ID(), hp.ID()
}

// ClosestWithPrefix returns the member closest to target among those
// sharing target's first prefixLen digits, excluding members in skip.
// Identifiers with a common prefix form a contiguous arc, so this is two
// binary searches plus a linear scan of the arc. Table construction uses
// the O(log N) single-exclusion variant ClosestWithPrefixExcl; this scan
// survives as the general-skip API and as its test reference.
func (r *Ring) ClosestWithPrefix(target id.ID, prefixLen int, skip map[id.ID]bool) (id.ID, bool) {
	if prefixLen <= 0 {
		return r.Closest(target, skip)
	}
	start, end, ok := r.arcBounds(target, prefixLen)
	if !ok {
		return id.ID{}, false
	}
	best, found := id.ID{}, false
	for i := start; i <= end; i++ {
		cand := r.ids[i]
		if skip[cand] {
			continue
		}
		if !found || id.Closer(cand, best, target) {
			best, found = cand, true
		}
	}
	return best, found
}

// arcBounds returns the inclusive index range [start, end] of members
// sharing target's first prefixLen digits, with ok=false when no member
// qualifies. Callers must pass prefixLen >= 1; prefixLen 0 is the whole
// ring, which is not a half-open arc.
func (r *Ring) arcBounds(target id.ID, prefixLen int) (start, end int, ok bool) {
	if prefixLen > id.Digits {
		prefixLen = id.Digits
	}
	lo, hi := target.Pair().PrefixRange(prefixLen)
	start = r.searchGEPair(lo)
	end = r.searchGEPair(hi)
	if end == len(r.pairs) || r.pairs[end] != hi {
		end--
	}
	if start > end {
		return 0, 0, false
	}
	return start, end, true
}

// ClosestWithPrefixExcl is ClosestWithPrefix specialized to a single
// excluded member — the only skip shape table construction needs. Within
// a shared-prefix arc there is no wraparound, so distance to target is
// monotone on each side of target's insertion point: the winner is among
// the nearest two candidates per side (two, because the nearest may be
// excl). O(log N) instead of a full arc scan.
func (r *Ring) ClosestWithPrefixExcl(target id.ID, prefixLen int, excl id.ID) (id.ID, bool) {
	if prefixLen <= 0 {
		return r.closestExcl(target, excl)
	}
	start, end, ok := r.arcBounds(target, prefixLen)
	if !ok {
		return id.ID{}, false
	}
	pos := r.searchGE(target)
	best, found := id.ID{}, false
	for _, i := range [4]int{pos, pos + 1, pos - 1, pos - 2} {
		if i < start || i > end {
			continue
		}
		cand := r.ids[i]
		if cand == excl {
			continue
		}
		if !found || id.Closer(cand, best, target) {
			best, found = cand, true
		}
	}
	return best, found
}

// closestWithPrefixExclIdx is ClosestWithPrefixExcl with the excluded
// member named by index and the winner returned by index — the form the
// compact core uses, where peers are uint32 ring positions rather than
// identifiers. Candidate order and tie-breaking match the ID variant
// exactly, so both return the same winner.
func (r *Ring) closestWithPrefixExclIdx(target id.ID, prefixLen, excl int) (int, bool) {
	if prefixLen <= 0 {
		return r.closestExclIdx(target, excl)
	}
	start, end, ok := r.arcBounds(target, prefixLen)
	if !ok {
		return 0, false
	}
	pos := r.searchGE(target)
	best, found := 0, false
	for _, i := range [4]int{pos, pos + 1, pos - 1, pos - 2} {
		if i < start || i > end || i == excl {
			continue
		}
		if !found || id.Closer(r.ids[i], r.ids[best], target) {
			best, found = i, true
		}
	}
	return best, found
}

// closestExclIdx is closestExcl by index.
func (r *Ring) closestExclIdx(target id.ID, excl int) (int, bool) {
	n := len(r.ids)
	pos := r.searchGE(target)
	best, found := 0, false
	for _, off := range [4]int{0, 1, -1, -2} {
		i := ((pos+off)%n + n) % n
		if i == excl {
			continue
		}
		if !found || id.Closer(r.ids[i], r.ids[best], target) {
			best, found = i, true
		}
	}
	return best, found
}

// hasOtherWithPrefixIdx is HasOtherWithPrefix with the exclusion by index.
func (r *Ring) hasOtherWithPrefixIdx(target id.ID, prefixLen, excl int) bool {
	if prefixLen <= 0 {
		return len(r.ids) > 1 || excl != 0
	}
	start, end, ok := r.arcBounds(target, prefixLen)
	if !ok {
		return false
	}
	return end > start || start != excl
}

// uniformWithPrefixExclIdx is UniformWithPrefixExcl by index. It consumes
// exactly the same rng draws as the ID variant: one IntN over the arc
// span when a candidate exists, none otherwise.
func (r *Ring) uniformWithPrefixExclIdx(target id.ID, prefixLen, excl int, rng interface{ IntN(int) int }) (int, bool) {
	start, end := 0, len(r.ids)-1
	if prefixLen > 0 {
		var ok bool
		start, end, ok = r.arcBounds(target, prefixLen)
		if !ok {
			return 0, false
		}
	}
	exclAt := -1
	if excl >= start && excl <= end {
		exclAt = excl
	}
	count := end - start + 1
	if exclAt >= 0 {
		count--
	}
	if count <= 0 {
		return 0, false
	}
	j := start + rng.IntN(count)
	if exclAt >= 0 && j >= exclAt {
		j++
	}
	return j, true
}

// closestExcl is Closest with a single excluded member: the circularly
// nearest survivor is within two ring steps of the insertion point, so
// four probes replace the outward walk.
func (r *Ring) closestExcl(target id.ID, excl id.ID) (id.ID, bool) {
	n := len(r.ids)
	pos := r.searchGE(target)
	best, found := id.ID{}, false
	for _, off := range [4]int{0, 1, -1, -2} {
		cand := r.ids[((pos+off)%n+n)%n]
		if cand == excl {
			continue
		}
		if !found || id.Closer(cand, best, target) {
			best, found = cand, true
		}
	}
	return best, found
}

// HasOtherWithPrefix reports whether any member besides excl shares
// target's first prefixLen digits — the row-termination probe of table
// construction, answered from the arc bounds without scanning.
func (r *Ring) HasOtherWithPrefix(target id.ID, prefixLen int, excl id.ID) bool {
	if prefixLen <= 0 {
		return len(r.ids) > 1 || r.ids[0] != excl
	}
	start, end, ok := r.arcBounds(target, prefixLen)
	if !ok {
		return false
	}
	if end > start {
		return true
	}
	return r.ids[start] != excl
}

// UniformWithPrefixExcl picks uniformly among members sharing target's
// first prefixLen digits, excluding (at most) excl, with one rng draw
// over the arc span instead of a reservoir pass through it.
func (r *Ring) UniformWithPrefixExcl(target id.ID, prefixLen int, excl id.ID, rng interface{ IntN(int) int }) (id.ID, bool) {
	start, end := 0, len(r.ids)-1
	if prefixLen > 0 {
		var ok bool
		start, end, ok = r.arcBounds(target, prefixLen)
		if !ok {
			return id.ID{}, false
		}
	}
	exclAt := -1
	if at, ok := r.IndexOf(excl); ok && at >= start && at <= end {
		exclAt = at
	}
	count := end - start + 1
	if exclAt >= 0 {
		count--
	}
	if count <= 0 {
		return id.ID{}, false
	}
	j := start + rng.IntN(count)
	if exclAt >= 0 && j >= exclAt {
		j++
	}
	return r.ids[j], true
}

// NeighborsClockwise returns up to k members following x on the ring
// (ascending with wraparound), excluding x itself.
func (r *Ring) NeighborsClockwise(x id.ID, k int) []id.ID {
	return r.neighbors(x, k, +1)
}

// NeighborsCounterClockwise returns up to k members preceding x.
func (r *Ring) NeighborsCounterClockwise(x id.ID, k int) []id.ID {
	return r.neighbors(x, k, -1)
}

func (r *Ring) neighbors(x id.ID, k, dir int) []id.ID {
	n := len(r.ids)
	if k > n-1 {
		k = n - 1
	}
	if k <= 0 {
		return nil
	}
	var pos int
	if at, ok := r.IndexOf(x); ok {
		pos = at
	} else {
		// x is not a member: start from the insertion point.
		pos = r.searchGE(x)
		if dir > 0 {
			pos-- // first clockwise neighbor is ids[pos] itself
		}
	}
	out := make([]id.ID, 0, k)
	for i := 1; len(out) < k; i++ {
		cand := r.ids[((pos+dir*i)%n+n)%n]
		if cand == x {
			break // wrapped all the way around
		}
		out = append(out, cand)
	}
	return out
}
