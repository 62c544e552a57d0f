package cluster

import (
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

// TestOneServerMatchesEngineClosed pins the delegation contract: a
// 1-server cluster over the paper's closed workload reproduces the
// single engine's Result byte-for-byte.
func TestOneServerMatchesEngineClosed(t *testing.T) {
	base := quickBase(16, 11)

	e, _, err := sched.NewEngineFor("striped", base, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := e.Run()

	sim, err := New(Config{Servers: 1, Technique: "striped", Base: base})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Aggregate, want) {
		t.Fatalf("1-server cluster diverged from the engine:\ncluster %+v\nengine  %+v", res.Aggregate, want)
	}
	if len(res.Servers) != 1 || !reflect.DeepEqual(res.Servers[0], want) {
		t.Fatalf("per-server result diverged: %+v", res.Servers)
	}
}

// TestOneServerMatchesEngineOpen pins the same contract over an open
// Zipf workload (the engine draws its own Poisson stream when
// delegated to), and for the staggered technique.
func TestOneServerMatchesEngineOpen(t *testing.T) {
	base := quickBase(32, 7)
	base.ZipfSkew = 1.1
	base.ArrivalsPerHour = 3000

	e, _, err := sched.NewEngineFor("staggered", base, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := e.Run()

	sim, err := New(Config{Servers: 1, Technique: "staggered", Stride: 1, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Aggregate, want) {
		t.Fatalf("1-server open cluster diverged from the engine:\ncluster %+v\nengine  %+v", res.Aggregate, want)
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
			cfg.Base.ZipfFlipInterval = cfg.Base.WarmupIntervals + cfg.Base.MeasureIntervals/2
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

	holders := make([]int, objects)
	for i, ids := range assign {
		if len(ids) > perServer {
			t.Fatalf("server %d assigned %d objects, capacity %d", i, len(ids), perServer)
		}
		for _, id := range ids {
			holders[id]++
		}
	}
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
