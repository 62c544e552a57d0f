package cluster

import "testing"

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
//   - a dead member holds no queued request and no display in delivery.
//
// A delegated one-member Sim has no rounds and is left unchecked.
func checkRounds(tb testing.TB, s *Sim) {
	tb.Helper()
	if s.dist == nil {
		return
	}
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
	s.stepCheck = func(t int) {
		rounds++
		if s.orphaned != s.reAdmitted+s.reAdmitDropped {
			tb.Fatalf("round %d: %d orphaned != %d re-admitted + %d dropped",
				t, s.orphaned, s.reAdmitted, s.reAdmitDropped)
		}
		want := 0
		for limit := float64(t+1) * s.dt; next < limit; next += shadow.Exp(s.meanGap) {
			want++
		}
		if got := s.lostArrivals - lost + s.delivered - delivered; got != want {
			tb.Fatalf("round %d: %d arrivals due, %d delivered + %d lost",
				t, want, s.delivered-delivered, s.lostArrivals-lost)
		}
		lost, delivered = s.lostArrivals, s.delivered
		if t == warm {
			// The round opened every window: both ledgers restarted.
			clear(routed)
			clear(injected)
		}
		for i, e := range s.engines {
			r := e.Snapshot()
			in := r.Requests + r.OpenRejected
			if in-injected[i] != s.routed[i]-routed[i] {
				tb.Fatalf("round %d: member %d took %d injections, ledger routed it %d",
					t, i, in-injected[i], s.routed[i]-routed[i])
			}
			injected[i], routed[i] = in, s.routed[i]
			if e.Dead() && (e.QueuedRequests() != 0 || e.ActiveDisplays() != 0) {
				tb.Fatalf("round %d: dead member %d holds %d queued, %d active",
					t, i, e.QueuedRequests(), e.ActiveDisplays())
			}
		}
	}
}
