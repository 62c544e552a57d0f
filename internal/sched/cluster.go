package sched

// This file is the engine's cluster-facing surface (DESIGN.md §13):
// the member constructor, the load and residency probes the dispatch
// policies read, and the arrival injection point for externally
// dispatched requests.

import (
	"fmt"

	"github.com/mmsim/staggered/internal/rng"
)

// NewMember builds a cluster member running this technique on cfg.
// The member draws nothing of its own — the cluster draws every
// arrival and its object, churn included, and routes it in through
// InjectArrival, so cfg.ArrivalsPerHour must be zero (ErrOwnArrivals,
// as for every engine) and the member builds no per-station streams —
// and it pre-places exactly the preload objects (best-effort, in slice
// order) instead of the most popular ones; an empty preload leaves the
// farm cold.  dist is the cluster's object popularity over cfg's
// catalog (Config.Popularity), which the member reads and never
// copies, so every member shares one.
func (ti TechniqueInfo) NewMember(cfg Config, dist *rng.Discrete, preload []int) (*Engine, error) {
	if dist == nil || dist.Len() != cfg.Objects {
		return nil, fmt.Errorf("sched: a cluster member needs the cluster's popularity over its %d objects", cfg.Objects)
	}
	for _, id := range preload {
		if id < 0 || id >= cfg.Objects {
			return nil, fmt.Errorf("sched: preload object %d out of range [0, %d)", id, cfg.Objects)
		}
	}
	return newEngine(cfg, ti.factory(), true, dist, preload)
}

// ActiveDisplays returns the number of displays currently in delivery,
// including batched followers — the leastloaded dispatch signal.
func (e *Engine) ActiveDisplays() int {
	return e.tech.activeDisplays() + e.activeFollowers
}

// QueuedRequests returns the number of admitted references still
// waiting in the disk queue.
func (e *Engine) QueuedRequests() int { return e.queue.n }

// HoldsObject reports whether the object is playable here right now —
// fully materialized on disk, or its prefix pinned in the cache tier.
// A cluster member keeps the same answer in its bit of the cluster's
// residency words (ShareResidency), which dispatch reads instead.
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
	if !e.member {
		return false, ErrInjectClosedLoop
	}
	if e.dead {
		return false, ErrInjectDead
	}
	if object < 0 || object >= e.cfg.Objects {
		return false, fmt.Errorf("%w: object %d of %d", ErrInjectObject, object, e.cfg.Objects)
	}
	n := len(e.idle)
	if n == 0 {
		e.openRejected++
		return false, nil
	}
	s := int(e.idle[n-1])
	e.idle = e.idle[:n-1]
	e.stn.Take(s)
	e.record(s, object)
	return true, nil
}

// Residency is a cluster's residency words: for each object,
// ceil(members/64) words in which bit i%64 of word i/64 is set while
// member i holds the object (HoldsObject).  Each member keeps its own
// bit in the calls that change its answer, so dispatch reads one word
// per 64 members instead of probing every member.
type Residency struct {
	words            []uint64 // object-major, stride words per object
	stride           int
	objects, members int
}

// NewResidency returns all-clear residency words for a catalog of
// objects and a fleet of members.
func NewResidency(objects, members int) *Residency {
	stride := (members + 63) / 64
	return &Residency{words: make([]uint64, objects*stride), stride: stride, objects: objects, members: members}
}

// Words returns obj's residency words; bit i%64 of word i/64 is
// member i's.  The slice aliases the table.
func (r *Residency) Words(obj int) []uint64 {
	return r.words[obj*r.stride : (obj+1)*r.stride]
}

// Holds reports member's bit of obj's residency words.
func (r *Residency) Holds(obj, member int) bool {
	return r.words[obj*r.stride+member>>6]&(1<<(member&63)) != 0
}

// ShareResidency makes the engine keep bit member of r for every
// object from now on, starting from what it holds now.  Call it once,
// after NewMember and before the first step.
func (e *Engine) ShareResidency(r *Residency, member int) error {
	if member < 0 || member >= r.members || r.objects != e.cfg.Objects {
		return fmt.Errorf("sched: residency words of %d objects and %d members have no bit %d for %d objects",
			r.objects, r.members, member, e.cfg.Objects)
	}
	e.res, e.resBit = r, member
	for obj := 0; obj < e.cfg.Objects; obj++ {
		e.syncHeld(obj)
	}
	if e.cache != nil {
		e.cache.OnResidencyChange(e.syncHeld)
	}
	return nil
}

// syncHeld writes the engine's bit of obj's residency words from
// HoldsObject; the technique and the tier call it wherever that
// answer may have flipped.  A standalone engine keeps no bit.
func (e *Engine) syncHeld(obj int) {
	if e.res == nil {
		return
	}
	w, bit := &e.res.words[obj*e.res.stride+e.resBit>>6], uint64(1)<<(e.resBit&63)
	if e.HoldsObject(obj) {
		*w |= bit
	} else {
		*w &^= bit
	}
}
