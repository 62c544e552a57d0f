package sched

import "fmt"

// dueRing is the engines' interval calendar: what fires at a given
// interval, in a ring of horizon slots indexed by interval mod
// horizon.  The paper bounds every engine event (§3.1): a display holds
// its disks for exactly Subobjects intervals after a startup delay of
// at most Tmax, so nothing is ever scheduled horizon or more intervals
// ahead and two live intervals never share a slot.  add enforces that
// bound instead of trusting it.
//
// Each interval's payloads drain in add order, and slot backings are
// reused, so steady-state traffic allocates nothing.  The ring keeps
// no clock of its own: an engine that skips intervals (a dead member)
// leaves its entries in their slots, and they drain the next time the
// slot comes around.  Every consumer revalidates its payloads against
// live state, so such leftovers are rejected as stale.
type dueRing[P any] struct {
	slots [][]P
}

func newDueRing[P any](horizon int) dueRing[P] {
	return dueRing[P]{slots: make([][]P, horizon)}
}

// add schedules v for interval at, which must lie in (now, now+horizon).
func (r *dueRing[P]) add(now, at int, v P) {
	h := len(r.slots)
	if at <= now || at-now >= h {
		outsideHorizon(now, at, h)
	}
	s := &r.slots[at%h]
	*s = append(*s, v)
}

// due empties the slot of interval now and returns its payloads in add
// order.  The result aliases the slot's backing, which stays untouched
// until the next add to the slot — at the earliest one interval later.
func (r *dueRing[P]) due(now int) []P {
	s := &r.slots[now%len(r.slots)]
	v := *s
	*s = v[:0]
	return v
}

func outsideHorizon(now, at, horizon int) {
	panic(fmt.Sprintf("sched: event at interval %d outside (%d, %d): the horizon is %d", at, now, now+horizon, horizon))
}
