package sched

// This file is the engine's cluster-facing surface (DESIGN.md §13):
// the member constructor, the load and residency probes the dispatch
// policies read, and the arrival injection point for externally
// dispatched requests.

import "fmt"

// NewMember builds a cluster member running this technique on cfg.
// The member draws no arrivals of its own — the cluster routes its
// shared arrival stream in through InjectArrival, so
// cfg.ArrivalsPerHour must be zero — and it pre-places exactly the
// preload objects (best-effort, in slice order) instead of the most
// popular ones; an empty preload leaves the farm cold.
func (ti TechniqueInfo) NewMember(cfg Config, preload []int) (*Engine, error) {
	if cfg.ArrivalsPerHour != 0 {
		return nil, fmt.Errorf("sched: a cluster member draws no arrivals of its own (ArrivalsPerHour %v)", cfg.ArrivalsPerHour)
	}
	for _, id := range preload {
		if id < 0 || id >= cfg.Objects {
			return nil, fmt.Errorf("sched: preload object %d out of range [0, %d)", id, cfg.Objects)
		}
	}
	return newEngine(cfg, ti.factory(), true, preload)
}

// ActiveDisplays returns the number of displays currently in delivery,
// including batched followers — the leastloaded dispatch signal.
func (e *Engine) ActiveDisplays() int {
	return e.tech.activeDisplays() + e.activeFollowers
}

// QueuedRequests returns the number of admitted references still
// waiting in the disk queue.
func (e *Engine) QueuedRequests() int { return e.queue.n }

// IdleStations returns how many stations an open-workload engine has
// free; a closed-loop engine (every station always cycling) reports 0.
func (e *Engine) IdleStations() int {
	if e.open == nil {
		return 0
	}
	return len(e.open.idle)
}

// HoldsObject reports whether the object is playable here right now —
// fully materialized on disk, or its prefix pinned in the cache tier —
// the popularity dispatch's residency probe.
func (e *Engine) HoldsObject(id int) bool {
	if id < 0 || id >= e.cfg.Objects {
		return false
	}
	if e.cache != nil && e.cache.Resident(id) {
		return true
	}
	return e.tech.holdsObject(id)
}

// InjectArrival admits one externally dispatched request for the
// object: the entry point a cluster driver routes its shared Poisson
// arrival stream through (TechniqueInfo.NewMember).  The request
// occupies an idle station; with every station busy the arrival is
// refused and counted in OpenRejected, and InjectArrival reports
// false.  Must be called between intervals on the stepping goroutine;
// the request is enqueued at the engine's current interval.  A
// closed-loop engine returns ErrInjectClosedLoop, a dead one
// ErrInjectDead and an object outside the catalog ErrInjectObject,
// and none of them is changed.
func (e *Engine) InjectArrival(object int) (bool, error) {
	if e.open == nil {
		return false, ErrInjectClosedLoop
	}
	if e.dead {
		return false, ErrInjectDead
	}
	if object < 0 || object >= e.cfg.Objects {
		return false, fmt.Errorf("%w: object %d of %d", ErrInjectObject, object, e.cfg.Objects)
	}
	n := len(e.open.idle)
	if n == 0 {
		e.open.rejected++
		e.open.rejectedTotal++
		return false, nil
	}
	s := e.open.idle[n-1]
	e.open.idle = e.open.idle[:n-1]
	e.stn.Take(s)
	e.record(s, object)
	return true, nil
}
