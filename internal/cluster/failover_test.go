package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/sched"
)

// TestDispatchSkipsDeadMembers is the unit pass over the three
// policies' failover branches, against real (primed, never stepped)
// engines: the natural target dying re-routes the pick to a live
// member and counts it, the popularity no-holder fallback prefers live
// members over a drained corpse reporting zero load, and an all-dead
// cluster yields -1 without counting a no-holder fallback.
func TestDispatchSkipsDeadMembers(t *testing.T) {
	sim, err := New(multiConfig("popularity"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sim.engines {
		e.Prime()
		defer e.Close()
	}

	// An object only member 0 holds: while 0 is alive popularity routes
	// there; once 0 dies the fallback must pick the live member, not the
	// dead holder and not the dead zero-load corpse.
	obj := -1
	for id := 0; id < sim.engines[0].Config().Objects; id++ {
		if holds(sim, 0, id) && !holds(sim, 1, id) {
			obj = id
			break
		}
	}
	if obj < 0 {
		t.Fatal("no object is held by member 0 alone")
	}

	sim.policy = popularity
	if got := sim.pick(obj); got != 0 {
		t.Fatalf("live holder: pick = %d, want 0", got)
	}
	if sim.noHolder != 0 || sim.failedOver != 0 {
		t.Fatalf("clean pick counted noHolder %d, failedOver %d", sim.noHolder, sim.failedOver)
	}

	if _, err := sim.engines[0].Kill(); err != nil {
		t.Fatal(err)
	}
	if got := sim.pick(obj); got != 1 {
		t.Fatalf("dead holder: pick = %d, want live member 1", got)
	}
	if sim.noHolder != 1 {
		t.Fatalf("dead-holder fallback counted noHolder %d, want 1", sim.noHolder)
	}

	for _, p := range []policy{roundRobin, leastLoaded} {
		sim.policy = p
		if got := sim.pick(obj); got != 1 {
			t.Fatalf("%s with member 0 dead: pick = %d, want 1", Policies()[p], got)
		}
	}
	if sim.failedOver == 0 {
		t.Fatal("no policy counted a failover off the dead member")
	}

	if _, err := sim.engines[1].Kill(); err != nil {
		t.Fatal(err)
	}
	noHolder := sim.noHolder
	for _, p := range []policy{roundRobin, leastLoaded, popularity} {
		sim.policy = p
		if got := sim.pick(obj); got != -1 {
			t.Fatalf("%s with every member dead: pick = %d, want -1", Policies()[p], got)
		}
	}
	if sim.noHolder != noHolder {
		t.Fatalf("a lost arrival counted as a no-holder fallback: %d -> %d", noHolder, sim.noHolder)
	}
}

// chaosFailoverConfig is the harness geometry: zero warm-up so window
// counters equal lifetime counters, open Zipf arrivals across n
// members.
func chaosFailoverConfig(n int, dispatch string, seed uint64) Config {
	base := quickBase(32, seed)
	base.WarmupIntervals = 0
	base.ZipfSkew = 1.1
	base.ArrivalsPerHour = 2500 * float64(n)
	return Config{Servers: n, Technique: "striped", Dispatch: dispatch, Base: base}
}

// TestChaosFailover is the seeded cluster chaos pass with a member
// kill in the mix: N ∈ {2, 4} members, disk faults on member 0, and a
// kill+restart window on the last member, under every dispatch policy.
// The invariants a degraded cluster must keep: every orphaned request
// is re-admitted or counted dropped, no arrival is lost while a live
// member exists, and the dispatch ledger balances — every routed
// arrival was either admitted (Requests) or refused at a full station
// pool (OpenRejected), nothing double-counted, nothing vanished, on
// every member and (checkRounds) after every round.  CI runs this
// under -race.
func TestChaosFailover(t *testing.T) {
	for _, n := range []int{2, 4} {
		for _, dispatch := range Policies() {
			n, dispatch := n, dispatch
			t.Run(fmt.Sprintf("n%d-%s", n, dispatch), func(t *testing.T) {
				t.Parallel()
				cfg := chaosFailoverConfig(n, dispatch, uint64(3+n))
				cfg.ServerFaults = []*fault.Plan{
					fault.NewPlan().FailDiskUntil(3, 200, 500).FailDiskUntil(17, 250, 600),
				}
				cfg.ServerPlan = fault.NewPlan().FailServerUntil(n-1, 300, 650)
				sim, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkRounds(t, sim)
				res, err := sim.Run()
				if err != nil {
					t.Fatal(err)
				}

				if res.OrphanedRequests != res.ReAdmitted+res.ReAdmitDropped {
					t.Errorf("orphan conservation violated: %d orphaned != %d readmitted + %d dropped",
						res.OrphanedRequests, res.ReAdmitted, res.ReAdmitDropped)
				}
				if res.LostArrivals != 0 {
					t.Errorf("%d arrivals lost with %d members and one kill", res.LostArrivals, n)
				}
				for i, r := range res.Servers {
					if got := r.Requests + r.OpenRejected; got != res.Routed[i] {
						t.Errorf("dispatch ledger off on member %d: routed %d != admitted %d + rejected %d",
							i, res.Routed[i], r.Requests, r.OpenRejected)
					}
				}
				victim := res.Servers[n-1]
				if victim.OrphanedDisplays > victim.AbortedDisplays {
					t.Errorf("victim orphaned %d displays but only aborted %d",
						victim.OrphanedDisplays, victim.AbortedDisplays)
				}
				if res.FailedOver == 0 {
					t.Errorf("%s never failed over during a 350-interval outage", dispatch)
				}
				// The victim was dead 350 of 1000 intervals: its window
				// must shrink accordingly (the Merge weighting input).
				if full := res.Servers[0].MeasureSeconds; victim.MeasureSeconds >= full {
					t.Errorf("victim dead 350 intervals still reports a full window: %v vs %v",
						victim.MeasureSeconds, full)
				}
				if res.Aggregate.Displays == 0 {
					t.Fatal("degraded cluster delivered zero displays")
				}

				// Determinism: a kill+restart run replays byte-for-byte.
				sim2, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res2, err := sim2.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, res2) {
					t.Errorf("same seed, different failover results:\n first %+v\nsecond %+v",
						res.Aggregate, res2.Aggregate)
				}
			})
		}
	}
}

// TestChaosFailoverSiblingIsolation extends the sibling-isolation pass
// into the failover regime: with roundrobin routing, disk faults on
// member 0 plus a kill of member 1 must leave members 2 and 3
// byte-identical to the same run without the disk faults.  Member 1's
// drain and re-admission depend only on its own trajectory, and the
// rotation is load-blind, so the only paths member 0's faults could
// leak through are exactly the isolation bugs this test exists to
// catch.
func TestChaosFailoverSiblingIsolation(t *testing.T) {
	run := func(diskFaults bool) Result {
		cfg := chaosFailoverConfig(4, "roundrobin", 9)
		if diskFaults {
			cfg.ServerFaults = []*fault.Plan{
				fault.NewPlan().FailDiskUntil(3, 150, 500).FailDiskUntil(17, 200, 700),
			}
		}
		cfg.ServerPlan = fault.NewPlan().FailServerUntil(1, 300, 650)
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkRounds(t, sim)
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	clean := run(false)
	faulted := run(true)

	s0 := faulted.Servers[0]
	if s0.AbortedDisplays == 0 && s0.DegradedHiccups == 0 && s0.RejectedDegraded == 0 {
		t.Fatal("disk faults had no visible effect on member 0 — the pass proves nothing")
	}
	for _, i := range []int{2, 3} {
		if !reflect.DeepEqual(faulted.Servers[i], clean.Servers[i]) {
			t.Errorf("member 0's disk faults perturbed member %d across a kill of member 1:\nfaulted %+v\nclean   %+v",
				i, faulted.Servers[i], clean.Servers[i])
		}
	}
}

// TestWholeFleetOutage kills every member over one window.  Each
// arrival of the outage finds nobody live and is counted lost, and in
// the revive round the members take no more requests than that
// round's own arrivals: the dead span's arrivals are not held back
// and delivered in one burst at the restart.
func TestWholeFleetOutage(t *testing.T) {
	const down, up = 500, 700
	for _, dispatch := range Policies() {
		t.Run(dispatch, func(t *testing.T) {
			cfg := multiConfig(dispatch)
			cfg.ServerPlan = fault.NewPlan().FailServerUntil(0, down, up).FailServerUntil(1, down, up)
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			trace := checkRounds(t, sim)
			dark, reviveRound := arrivalsIn(sim, down, up), arrivalsIn(sim, up, up+1)
			if dark == 0 {
				t.Fatal("no arrivals fall in the outage — the case proves nothing")
			}
			requests := 0
			for i := range trace {
				trace[i] = func(ev sched.Event) {
					if ev.Kind == sched.EvRequest && ev.Interval == up {
						requests++
					}
				}
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.LostArrivals != dark {
				t.Errorf("%d arrivals fell in the outage, %d counted lost", dark, res.LostArrivals)
			}
			if requests > reviveRound {
				t.Errorf("revive round queued %d requests for its %d arrivals", requests, reviveRound)
			}
		})
	}
}

// TestResidencyWordPicks runs popularity-dispatched members with a
// memory tier two prefixes deep, so pins and evictions churn, through a
// kill, a restart that flushes the tier, and healing: four members
// under each technique, and 70 striped members, whose residency words
// take two words per object.  checkRounds holds the words to the
// members' own HoldsObject after every round and around every heal
// pass, and every leastLoaded choice to the one the per-member probes
// make.
func TestResidencyWordPicks(t *testing.T) {
	type run struct {
		tech    string
		members int
	}
	var runs []run
	for _, tech := range sched.TechniqueKeys() {
		runs = append(runs, run{tech, 4})
	}
	runs = append(runs, run{"striped", 70})
	for _, r := range runs {
		t.Run(fmt.Sprintf("%s-n%d", r.tech, r.members), func(t *testing.T) {
			cfg := chaosFailoverConfig(r.members, "popularity", 11)
			cfg.Technique = r.tech
			cfg.Base.Cache = &cache.Spec{BudgetBytes: 64 << 20, BatchWindow: 8}
			cfg.ServerPlan = fault.NewPlan().FailServerUntil(1, 300, 650)
			cfg.HealBudget = 2
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRounds(t, sim)
			inner, picks, high := sim.pickCheck, 0, 0
			sim.pickCheck = func(obj int, holders bool, got int) {
				picks++
				if got >= 64 {
					high++
				}
				inner(obj, holders, got)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if picks == 0 || res.HealedReplicas == 0 || res.Aggregate.ServedFromCache == 0 || r.members > 64 && high == 0 {
				t.Fatalf("%d picks checked (%d beyond the first word), %d replicas healed, %d cache serves: the run exercised too little",
					picks, high, res.HealedReplicas, res.Aggregate.ServedFromCache)
			}
		})
	}
}

// TestLoneMemberOutage kills the only member of a one-member cluster.
// A fleet of one steps the same rounds as any fleet: checkRounds holds
// after every round, and each arrival of the outage finds nobody live
// and is counted lost, never re-routed, under every policy.
func TestLoneMemberOutage(t *testing.T) {
	const down, up = 500, 700
	for _, dispatch := range Policies() {
		t.Run(dispatch, func(t *testing.T) {
			cfg := multiConfig(dispatch)
			cfg.Servers = 1
			cfg.ServerPlan = fault.NewPlan().FailServerUntil(0, down, up)
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRounds(t, sim)
			dark := arrivalsIn(sim, down, up)
			if dark == 0 {
				t.Fatal("no arrivals fall in the outage — the case proves nothing")
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.LostArrivals != dark {
				t.Errorf("%d arrivals fell in the outage, %d counted lost", dark, res.LostArrivals)
			}
			if res.FailedOver != 0 {
				t.Errorf("%d dispatches counted re-routed with no live member to take them", res.FailedOver)
			}
			if res.Aggregate.Displays == 0 {
				t.Error("the member delivered no displays around its outage")
			}
		})
	}
}

// TestRecoveryCadence pins the sampling and healing cadences to the
// integer clock: sample k lands at exactly k·n intervals and reads the
// completed displays of rounds before k·n, and every heal pass runs at
// a multiple of Subobjects, so the time-to-redistribute is a whole
// number of healing windows after a kill on a window boundary.
func TestRecoveryCadence(t *testing.T) {
	const n, killAt = 30, 300
	cfg := chaosFailoverConfig(4, "popularity", 3)
	cfg.Base.WarmupIntervals = 200
	cfg.SampleIntervals = n
	cfg.HealBudget = 1
	cfg.ServerPlan = fault.NewPlan().FailServer(1, killAt)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := checkRounds(t, sim)
	var completedIn []int // completions per interval, all members
	var healedAt []int
	for i := range trace {
		trace[i] = func(ev sched.Event) {
			switch {
			case ev.Kind == sched.EvComplete:
				for len(completedIn) <= ev.Interval {
					completedIn = append(completedIn, 0)
				}
				completedIn[ev.Interval]++
			case ev.Kind == sched.EvMatEnd && ev.Detail == "healed":
				healedAt = append(healedAt, ev.Interval)
			}
		}
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	sub := cfg.Base.Subobjects
	if len(res.Samples) != (cfg.Base.WarmupIntervals+cfg.Base.MeasureIntervals-1)/n {
		t.Fatalf("%d samples", len(res.Samples))
	}
	for i, s := range res.Samples {
		round := (i + 1) * n
		if want := float64(round) * sim.dt; s.Seconds != want {
			t.Errorf("sample %d at %v s, want round %d = %v s", i+1, s.Seconds, round, want)
		}
		done := 0
		for _, c := range completedIn[:min(round, len(completedIn))] {
			done += c
		}
		if s.Displays != done {
			t.Errorf("sample %d read %d displays, %d completed before round %d", i+1, s.Displays, done, round)
		}
	}
	if len(healedAt) < 2 {
		t.Fatalf("only %d heal events — the case proves nothing", len(healedAt))
	}
	for _, at := range healedAt {
		if at%sub != 0 {
			t.Errorf("heal pass at interval %d, not a multiple of %d", at, sub)
		}
	}
	if d := res.RedistributeSeconds; d != float64(int(d/sim.dt+0.5))*sim.dt || int(d/sim.dt+0.5)%sub != 0 {
		t.Errorf("redistribute time %v s is not a whole number of %d-interval windows", d, sub)
	}
}
