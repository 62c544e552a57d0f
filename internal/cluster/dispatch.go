package cluster

import "fmt"

// Dispatch routes one cluster arrival to a member server.  Policies
// are consulted between intervals on the stepping goroutine and may
// read the members' live load, residency, and liveness probes through
// the Sim.  Every policy skips dead members, counting the re-route in
// Result.FailedOver when the member it would naturally have chosen is
// dead; with every member dead Pick returns -1 and the caller counts
// the arrival lost.  On a cluster with no server fault plan nothing is
// ever dead, the failover branches never fire, and the decisions are
// identical to the pre-failover policies (the golden pins cover this).
type Dispatch interface {
	// Name is the stable CLI key.
	Name() string
	// Pick returns the serving server for an arrival referencing obj,
	// or -1 when no live member exists.
	Pick(obj int, s *Sim) int
}

// Policies returns the registered dispatch policy keys in
// presentation order.
func Policies() []string { return []string{"roundrobin", "leastloaded", "popularity"} }

// newDispatch resolves a policy key ("" = roundrobin).
func newDispatch(key string) (Dispatch, error) {
	switch key {
	case "", "roundrobin":
		return &roundRobin{}, nil
	case "leastloaded":
		return leastLoaded{}, nil
	case "popularity":
		return popularity{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown dispatch policy %q (have %v)", key, Policies())
}

// roundRobin cycles through the servers in order, object-blind — the
// baseline every smarter policy must beat.
type roundRobin struct{ next int }

func (*roundRobin) Name() string { return "roundrobin" }

func (rr *roundRobin) Pick(_ int, s *Sim) int {
	n := len(s.engines)
	i := rr.next
	rr.next = (rr.next + 1) % n
	if !s.dead(i) {
		return i
	}
	// The cursor's natural target is dead: re-route to the next live
	// member in rotation.  The cursor still advances by one, so the
	// rotation resumes where it left off once the member restarts.
	s.failedOver++
	for k := 1; k < n; k++ {
		if j := (i + k) % n; !s.dead(j) {
			return j
		}
	}
	return -1
}

// leastLoaded routes to the server with the fewest displays in
// delivery plus queued references (ties to the lowest index) — the
// classic join-the-shortest-queue heuristic.
type leastLoaded struct{}

func (leastLoaded) Name() string { return "leastloaded" }

func (leastLoaded) Pick(_ int, s *Sim) int {
	bestAll, bestAllLoad := -1, 0
	best, bestLoad := -1, 0
	for i := range s.engines {
		l := s.load(i)
		if bestAll < 0 || l < bestAllLoad {
			bestAll, bestAllLoad = i, l
		}
		if !s.dead(i) && (best < 0 || l < bestLoad) {
			best, bestLoad = i, l
		}
	}
	if best < 0 {
		return -1
	}
	if bestAll != best {
		// The global argmin is a dead member (drained, it reports zero
		// load, so this fires on nearly every dispatch during an
		// outage): FailedOver here reads as availability pressure.
		s.failedOver++
	}
	return best
}

// popularity routes to a server whose placement (or cache tier) holds
// the object — the replica servers chosen by Zipf rank at build time —
// picking the least loaded live holder so hot objects with several
// replicas still balance.  An object no live member holds (evicted,
// past the aggregate capacity, or every holder dead) falls back to the
// least loaded live member and is counted in Result.NoHolder; the
// chosen server materializes it.
type popularity struct{}

func (popularity) Name() string { return "popularity" }

func (popularity) Pick(obj int, s *Sim) int {
	bestAll, bestAllLoad := -1, 0
	best, bestLoad := -1, 0
	for i := range s.engines {
		if !s.holds(i, obj) {
			continue
		}
		l := s.load(i)
		if bestAll < 0 || l < bestAllLoad {
			bestAll, bestAllLoad = i, l
		}
		if !s.dead(i) && (best < 0 || l < bestLoad) {
			best, bestLoad = i, l
		}
	}
	if best >= 0 {
		if bestAll != best {
			s.failedOver++ // the best holder overall is a dead member
		}
		return best
	}
	// No live holder.  The fallback itself must prefer live members —
	// leastLoaded skips dead ones — rather than handing the arrival to
	// a drained corpse that happens to report zero load.  With every
	// member dead the caller counts the arrival lost instead.
	target := leastLoaded{}.Pick(obj, s)
	if target >= 0 {
		s.noHolder++
	}
	return target
}
