package cluster

import (
	"fmt"
	"math/bits"
	"slices"
)

// policy is an arrival-routing policy; its value indexes Policies.
type policy int

const (
	// roundRobin cycles through the members in order, object-blind —
	// the baseline every smarter policy must beat.
	roundRobin policy = iota
	// leastLoaded routes to the member with the fewest displays in
	// delivery plus queued references (ties to the lowest index) — the
	// classic join-the-shortest-queue heuristic.
	leastLoaded
	// popularity routes to the least loaded live member whose placement
	// (or cache tier) holds the object — the replica holders chosen by
	// Zipf rank at build time — so hot objects with several replicas
	// still balance.  An object no live member holds (evicted, past the
	// aggregate capacity, or every holder dead) falls back to
	// leastLoaded, counted in Result.NoHolder; the chosen member
	// materializes it.
	popularity
)

// Policies returns the registered dispatch policy keys in
// presentation order.
func Policies() []string { return []string{"roundrobin", "leastloaded", "popularity"} }

// parsePolicy resolves a policy key ("" = roundrobin).
func parsePolicy(key string) (policy, error) {
	if key == "" {
		return roundRobin, nil
	}
	if i := slices.Index(Policies(), key); i >= 0 {
		return policy(i), nil
	}
	return 0, fmt.Errorf("cluster: unknown dispatch policy %q (have %v)", key, Policies())
}

// pick routes one arrival referencing obj to a member under the Sim's
// policy, between rounds.  Every policy skips dead members, counting
// in failedOver a re-route to a live member when the one it would
// naturally have chosen is dead; with every member dead pick returns
// -1 and the caller counts the arrival lost.  On a cluster with no
// server fault plan nothing is ever dead and the failover branches
// never fire.
func (s *Sim) pick(obj int) int {
	switch s.policy {
	case roundRobin:
		n := len(s.engines)
		i := s.cursor
		s.cursor = (i + 1) % n
		if !s.dead(i) {
			return i
		}
		// The cursor's natural target is dead: re-route to the next live
		// member in rotation, counted only when there is one.  The cursor
		// still advances by one, so the rotation resumes where it left
		// off once the member restarts.
		for k := 1; k < n; k++ {
			if j := (i + k) % n; !s.dead(j) {
				s.out.FailedOver++
				return j
			}
		}
		return -1
	case popularity:
		if target := s.leastLoaded(obj, true); target >= 0 {
			return target
		}
		// No live holder.  The fallback prefers live members rather than
		// a drained corpse that happens to report zero load.
		target := s.leastLoaded(obj, false)
		if target >= 0 {
			s.out.NoHolder++
		}
		return target
	}
	return s.leastLoaded(obj, false)
}

// leastLoaded returns the least loaded live member (ties to the lowest
// index) among obj's holders, or among every member when holders is
// false; -1 when there is none.  The holders are the set bits of
// obj's residency words, walked in ascending member order.  When the
// argmin over the same candidates, dead ones included, is a dead
// member it counts the pick in failedOver: a drained dead member
// reports zero load, so for leastloaded this fires on nearly every
// dispatch of an outage and reads as availability pressure.
func (s *Sim) leastLoaded(obj int, holders bool) int {
	bestAll, bestAllLoad := -1, 0
	best, bestLoad := -1, 0
	words := s.res.Words(obj)
	for i := 0; i < len(s.engines); i++ {
		if holders {
			w := words[i>>6] >> (i & 63)
			if w == 0 {
				i |= 63 // no holder left in this word
				continue
			}
			i += bits.TrailingZeros64(w)
		}
		l := s.load(i)
		if bestAll < 0 || l < bestAllLoad {
			bestAll, bestAllLoad = i, l
		}
		if !s.dead(i) && (best < 0 || l < bestLoad) {
			best, bestLoad = i, l
		}
	}
	if best >= 0 && bestAll != best {
		s.out.FailedOver++
	}
	if s.pickCheck != nil {
		s.pickCheck(obj, holders, best)
	}
	return best
}
