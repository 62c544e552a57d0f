package cluster

import (
	"testing"

	"github.com/mmsim/staggered/internal/sched"
)

// arrivalsIn counts the cluster arrivals that fall in rounds
// [from, to), replaying a copy of the Sim's arrival stream from its
// build-time state.  Call it before Run.
func arrivalsIn(s *Sim, from, to int) int {
	st, at := s.arrStream, s.nextAt
	n := 0
	for at < float64(to)*s.dt {
		if at >= float64(from)*s.dt {
			n++
		}
		at += st.Exp(s.meanGap)
	}
	return n
}

// checkRounds installs the cluster's continuous invariant checks as the
// Sim's per-round hook.  After every round:
//   - every orphaned request was re-admitted or counted dropped;
//   - every arrival of the round (replayed from a copy of the arrival
//     stream, so a deferred or skipped arrival shows) was either handed
//     to a member or counted lost;
//   - each member took exactly the injections the dispatch ledger
//     routed to it (its Requests + OpenRejected grow with Routed);
//   - a dead member holds no queued request and no display in delivery;
//   - every live member's memory tier keeps its invariants
//     (Engine.CheckCache: victim-heap order, position table, bytes
//     used);
//   - the residency words equal every member's HoldsObject for every
//     object (also just before and just after every heal pass).
//
// At every leastLoaded choice, the residency-word walk picks the
// member the per-member probes pick (checkPicks).
//
// Around every heal pass (checkHeal):
//   - HealedReplicas grew by exactly the pass's adoptions;
//   - each adopted object is now held by a live member that did not
//     hold it before the pass, unless the same pass evicted it again.
//
// The check traces every member itself; it returns the tracer slots a
// test sets in place of Engine.SetTracer.
func checkRounds(tb testing.TB, s *Sim) []sched.Tracer {
	tb.Helper()
	shadow, next := s.arrStream, s.nextAt
	cfg := s.engines[0].Config()
	warm, rounds := cfg.WarmupIntervals, 0
	tb.Cleanup(func() {
		if end := warm + cfg.MeasureIntervals; rounds != end && !tb.Failed() {
			tb.Errorf("step check ran %d of %d rounds", rounds, end)
		}
	})
	lost, delivered := 0, 0
	routed := make([]int, len(s.engines))
	injected := make([]int, len(s.engines))
	heal, trace := checkHeal(tb, s)
	checkPicks(tb, s)
	s.stepCheck = func(t int, at checkPoint) {
		checkResidency(tb, s, t)
		if at != roundEnd {
			heal(t, at)
			return
		}
		rounds++
		if s.out.OrphanedRequests != s.out.ReAdmitted+s.out.ReAdmitDropped {
			tb.Fatalf("round %d: %d orphaned != %d re-admitted + %d dropped",
				t, s.out.OrphanedRequests, s.out.ReAdmitted, s.out.ReAdmitDropped)
		}
		want := 0
		for limit := float64(t+1) * s.dt; next < limit; next += shadow.Exp(s.meanGap) {
			want++
		}
		if got := s.out.LostArrivals - lost + s.delivered - delivered; got != want {
			tb.Fatalf("round %d: %d arrivals due, %d delivered + %d lost",
				t, want, s.delivered-delivered, s.out.LostArrivals-lost)
		}
		lost, delivered = s.out.LostArrivals, s.delivered
		if t == warm {
			// The round opened every window: both ledgers restarted.
			clear(routed)
			clear(injected)
		}
		for i, e := range s.engines {
			r := e.Snapshot()
			in := r.Requests + r.OpenRejected
			if in-injected[i] != s.out.Routed[i]-routed[i] {
				tb.Fatalf("round %d: member %d took %d injections, ledger routed it %d",
					t, i, in-injected[i], s.out.Routed[i]-routed[i])
			}
			injected[i], routed[i] = in, s.out.Routed[i]
			if e.Dead() {
				if e.QueuedRequests() != 0 || e.ActiveDisplays() != 0 {
					tb.Fatalf("round %d: dead member %d holds %d queued, %d active",
						t, i, e.QueuedRequests(), e.ActiveDisplays())
				}
			} else if err := e.CheckCache(); err != nil {
				tb.Fatalf("round %d: member %d: %v", t, i, err)
			}
		}
	}
	return trace
}

// holds is the per-member probe the residency words stand in for: it
// asks member i itself whether it holds obj.
func holds(s *Sim, i, obj int) bool { return s.engines[i].HoldsObject(obj) }

// checkResidency fails tb unless the residency words, at round t,
// equal every member's own answer for every object.
func checkResidency(tb testing.TB, s *Sim, t int) {
	for i := range s.engines {
		for obj := 0; obj < s.engines[i].Config().Objects; obj++ {
			if w, p := s.res.Holds(obj, i), holds(s, i, obj); w != p {
				tb.Fatalf("round %d: residency word says member %d holds object %d: %v, the member says %v", t, i, obj, w, p)
			}
		}
	}
}

// checkPicks installs the Sim's pick hook: every leastLoaded choice is
// recomputed from the per-member probes — the least loaded live member
// among obj's holders (or among all members), ties to the lowest
// index — and must be the member the residency-word walk chose.  It
// returns the count of choices checked.
func checkPicks(tb testing.TB, s *Sim) *int {
	checked := new(int)
	s.pickCheck = func(obj int, holders bool, got int) {
		*checked++
		want, wantLoad := -1, 0
		for i := range s.engines {
			if s.dead(i) || holders && !holds(s, i, obj) {
				continue
			}
			if l := s.load(i); want < 0 || l < wantLoad {
				want, wantLoad = i, l
			}
		}
		if got != want {
			tb.Fatalf("object %d (holders %v): the residency words picked member %d, the probes pick %d", obj, holders, got, want)
		}
	}
	return checked
}

// checkHeal returns the heal-pass half of checkRounds, and the
// member tracer it installs in its place: a test that traces member i
// sets trace[i], which the installed tracer forwards every event to.
// Before a pass it records HealedReplicas, which members are live and
// which of them hold each queued object; over the pass the tracer
// collects the members' adoptions ("healed" materialization ends) and
// evictions, in order.  After the pass:
//   - HealedReplicas grew by exactly the number of adoptions;
//   - each adoption went to a live member that did not hold the object
//     at that moment (before the pass, or since a pass eviction);
//   - the member still holds it after the pass, unless a later
//     adoption of the same pass evicted it to make room.  healPass
//     sends every entry to the least-loaded live non-holder, and an
//     adoption does not change load, so a budget of two or more often
//     lands consecutive entries on one member, whose LFU eviction then
//     picks the replica just adopted (never referenced there): it is
//     counted healed and lost in the same pass.  The check tolerates
//     exactly that and nothing else.
func checkHeal(tb testing.TB, s *Sim) (func(t int, at checkPoint), []sched.Tracer) {
	trace := make([]sched.Tracer, len(s.engines))
	type heldBy struct{ obj, member int }
	var events []sched.Event // of the pass, Station set to the member
	inPass := false
	for i, e := range s.engines {
		e.SetTracer(func(ev sched.Event) {
			if inPass && (ev.Kind == sched.EvEvict || ev.Kind == sched.EvMatEnd && ev.Detail == "healed") {
				ev.Station = i
				events = append(events, ev)
			}
			if trace[i] != nil {
				trace[i](ev)
			}
		})
	}
	var live []bool
	held := map[heldBy]bool{} // before the pass, for every queued object
	healed := 0
	return func(t int, at checkPoint) {
		if at == beforeHeal {
			inPass, events, healed = true, events[:0], s.out.HealedReplicas
			live = live[:0]
			for i := range s.engines {
				live = append(live, !s.dead(i))
			}
			clear(held)
			for _, h := range s.healQueue {
				for i := range s.engines {
					held[heldBy{h.obj, i}] = holds(s, i, h.obj)
				}
			}
			return
		}
		inPass = false
		adoptions, kept := 0, map[heldBy]bool{} // kept: adopted and not evicted since
		for _, ev := range events {
			k := heldBy{ev.Object, ev.Station}
			if ev.Kind == sched.EvEvict {
				held[k], kept[k] = false, false
				continue
			}
			adoptions++
			if !live[ev.Station] {
				tb.Fatalf("round %d: the heal pass adopted object %d onto dead member %d", t, ev.Object, ev.Station)
			}
			if held[k] {
				tb.Fatalf("round %d: the heal pass adopted object %d onto member %d, which held it", t, ev.Object, ev.Station)
			}
			held[k], kept[k] = true, true
		}
		for k, ok := range kept {
			if ok && !holds(s, k.member, k.obj) {
				tb.Fatalf("round %d: member %d does not hold object %d after the pass adopted it", t, k.member, k.obj)
			}
		}
		if got := s.out.HealedReplicas - healed; got != adoptions {
			tb.Fatalf("round %d: the heal pass counted %d healed replicas for %d adoptions", t, got, adoptions)
		}
	}, trace
}
