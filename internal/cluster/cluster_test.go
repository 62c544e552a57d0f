package cluster

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/sched"
	"github.com/mmsim/staggered/internal/tertiary"
)

// quickBase is the experiment layer's quick geometry: a 50-disk farm
// holding half a 40-object catalog, small enough for -race CI.
func quickBase(stations int, seed uint64) sched.Config {
	return sched.Config{
		D:                 50,
		K:                 5,
		CapacityFragments: 60,
		Objects:           40,
		Subobjects:        30,
		M:                 5,
		BDisk:             20e6,
		FragmentBytes:     1512000,
		Tertiary:          tertiary.Table3,
		TapeLayout:        tertiary.DiskMatched,
		Stations:          stations,
		DistMean:          20,
		Seed:              seed,
		WarmupIntervals:   200,
		MeasureIntervals:  1000,
	}
}

// multiConfig is the shared 2-server configuration of the isolation
// and determinism tests: open Zipf arrivals split across two members.
func multiConfig(dispatch string) Config {
	base := quickBase(32, 5)
	base.ZipfSkew = 1.1
	base.ArrivalsPerHour = 5000
	return Config{Servers: 2, Technique: "striped", Dispatch: dispatch, Base: base}
}

// TestRunTwiceReturnsTypedError pins the double-Run contract at the
// cluster level.
func TestRunTwiceReturnsTypedError(t *testing.T) {
	sim, err := New(multiConfig("roundrobin"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != sched.ErrAlreadyRun {
		t.Fatalf("second Run returned %v, want sched.ErrAlreadyRun", err)
	}
}

// TestNonFiniteArrivalRateRejected pins that an infinite cluster-wide
// arrival rate is a configuration error, not a zero-gap arrival stream.
func TestNonFiniteArrivalRateRejected(t *testing.T) {
	cfg := multiConfig("roundrobin")
	cfg.Base.ArrivalsPerHour = math.Inf(1)
	if _, err := New(cfg); err == nil {
		t.Fatal("infinite arrival rate accepted")
	}
}

// TestInvalidWearMeanRejected pins that a server wear process or a
// member's disk wear process built with an invalid mean fails New with
// fault.ErrWearMean instead of panicking.
func TestInvalidWearMeanRejected(t *testing.T) {
	cfg := multiConfig("roundrobin")
	cfg.ServerPlan = fault.NewPlan().ServerWearProcess([]int{0}, math.NaN(), 10, 500, 1)
	if _, err := New(cfg); !errors.Is(err, fault.ErrWearMean) {
		t.Fatalf("server wear with a NaN mttf: New returned %v, want fault.ErrWearMean", err)
	}
	cfg = multiConfig("roundrobin")
	cfg.ServerFaults = []*fault.Plan{nil, fault.NewPlan().WearProcess([]int{0}, 50, 0, 500, 1)}
	if _, err := New(cfg); !errors.Is(err, fault.ErrWearMean) {
		t.Fatalf("member wear with a zero mttr: New returned %v, want fault.ErrWearMean", err)
	}
}

// TestChaosSiblingIsolation is the seeded chaos pass: disk faults on
// server 0 must not perturb server 1's Result in any byte.  Round
// robin routing is object- and load-blind, so both runs deliver the
// identical arrival subsequence to server 1; everything else about
// server 1 (seed split, placement, stepping order) must be fault
// independent.
func TestChaosSiblingIsolation(t *testing.T) {
	run := func(plans []*fault.Plan) Result {
		cfg := multiConfig("roundrobin")
		cfg.ServerFaults = plans
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	clean := run(nil)

	plan := fault.NewPlan().
		FailDiskUntil(3, 300, 700).
		FailDiskUntil(17, 320, 800)
	faulted := run([]*fault.Plan{plan})

	if faulted.Servers[0].AbortedDisplays == 0 && faulted.Servers[0].DegradedHiccups == 0 &&
		faulted.Servers[0].RejectedDegraded == 0 {
		t.Fatal("fault plan had no visible effect on server 0 — the pass proves nothing")
	}
	if !reflect.DeepEqual(faulted.Servers[1], clean.Servers[1]) {
		t.Fatalf("server 0's faults perturbed server 1:\nfaulted %+v\nclean   %+v",
			faulted.Servers[1], clean.Servers[1])
	}
}

// TestPopularityChurnReconverges pins that the popularity dispatch
// rides out a mid-measurement Zipf flip: the replica ladder still
// holds (nearly) every object somewhere, so routing stays
// residency-directed and the cluster's aggregate throughput stays
// close to the churn-free run instead of collapsing into
// materialization storms.
func TestPopularityChurnReconverges(t *testing.T) {
	run := func(flip bool) Result {
		cfg := multiConfig("popularity")
		cfg.Base.CapacityFragments = 63 // full catalog placed (see TestPopularityRoutesToHolders)
		if flip {
			cfg.FlipAt = cfg.Base.WarmupIntervals + cfg.Base.MeasureIntervals/2
		}
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	calm := run(false)
	churned := run(true)

	if churned.Aggregate == calm.Aggregate {
		t.Fatal("cluster-level flip had no effect at all — the hook is dead")
	}
	if churned.NoHolder != 0 {
		t.Errorf("churn broke residency routing: %d no-holder fallbacks", churned.NoHolder)
	}
	calmTP := calm.Aggregate.Throughput()
	churnTP := churned.Aggregate.Throughput()
	if churnTP < 0.85*calmTP {
		t.Errorf("throughput under churn = %.1f/hr, want ≥ 85%% of calm %.1f/hr", churnTP, calmTP)
	}
}

// TestReplicaAssignments pins the build-time placement ladder: the
// hottest object lands on every server, copy counts halve by rank
// band, per-server capacity is respected, and every object has a
// holder while aggregate capacity lasts.
func TestReplicaAssignments(t *testing.T) {
	const objects, n, perServer = 40, 4, 20
	assign := replicaAssignments(objects, n, perServer, 1)
	for i, ids := range assign {
		if len(ids) > perServer {
			t.Fatalf("server %d assigned %d objects, capacity %d", i, len(ids), perServer)
		}
	}
	holders := holdersAt(objects, n, perServer, 1)
	if holders[0] != n {
		t.Errorf("hottest object on %d servers, want all %d", holders[0], n)
	}
	if holders[1] != n/2 || holders[2] != n/2 {
		t.Errorf("band-1 objects on %d/%d servers, want %d", holders[1], holders[2], n/2)
	}
	for id, h := range holders {
		if h == 0 {
			t.Errorf("object %d has no holder despite spare capacity", id)
		}
	}

	if !reflect.DeepEqual(assign, replicaAssignments(objects, n, perServer, 1)) {
		t.Error("replica placement is not deterministic")
	}

	// The survivability knob E21 sweeps: a deeper ladder leaves fewer
	// objects single-homed on the member E21 kills (member 1), so fewer
	// objects lose their last holder with it.
	for depth, want := range map[int]int{1: 9, 2: 8, 4: 6} {
		holders, only := holdersAt(objects, n, perServer, depth), 0
		for _, id := range replicaAssignments(objects, n, perServer, depth)[1] {
			if holders[id] == 1 {
				only++
			}
		}
		if only != want {
			t.Errorf("depth %d: %d objects held only by member 1, want %d", depth, only, want)
		}
	}
}

// holdersAt counts each object's build-time holders.
func holdersAt(objects, n, perServer, depth int) []int {
	holders := make([]int, objects)
	for _, ids := range replicaAssignments(objects, n, perServer, depth) {
		for _, id := range ids {
			holders[id]++
		}
	}
	return holders
}

// TestPopularityRoutesToHolders pins that with every object placed
// somewhere, the popularity policy never needs the no-holder fallback
// and spreads measurement-window arrivals across all members.  The
// farm gets one extra cylinder per disk over the quick geometry: two
// 20-object servers leave no room for the hot object's second copy
// (40 slots, ladder needs 41), and a coldest-object fallback is
// exactly what this test must distinguish from a routing bug.
func TestPopularityRoutesToHolders(t *testing.T) {
	cfg := multiConfig("popularity")
	cfg.Base.CapacityFragments = 63
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NoHolder != 0 {
		t.Errorf("popularity fell back %d times despite full placement", res.NoHolder)
	}
	for i, n := range res.Routed {
		if n == 0 {
			t.Errorf("server %d received no measurement-window arrivals: routed %v", i, res.Routed)
		}
	}
	if res.Aggregate.Displays == 0 {
		t.Fatal("popularity cluster delivered zero displays")
	}
}

// TestWindowLedgerPerMember pins the warm-up boundary: every member
// opens its measurement window before the boundary round's arrivals
// are routed, so each member's admitted plus refused requests equal
// exactly what the dispatch ledger routed to it.  The rate puts
// arrivals in the boundary round.
func TestWindowLedgerPerMember(t *testing.T) {
	for _, dispatch := range Policies() {
		t.Run(dispatch, func(t *testing.T) {
			cfg := multiConfig(dispatch)
			cfg.Base.ArrivalsPerHour = 60000
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRounds(t, sim)
			if warm := cfg.Base.WarmupIntervals; arrivalsIn(sim, warm, warm+1) == 0 {
				t.Fatal("no arrivals in the boundary round — the case proves nothing")
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res.Servers {
				if got := r.Requests + r.OpenRejected; got != res.Routed[i] {
					t.Errorf("member %d: routed %d, window admitted %d + refused %d",
						i, res.Routed[i], r.Requests, r.OpenRejected)
				}
			}
		})
	}
}
