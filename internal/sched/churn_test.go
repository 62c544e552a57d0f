package sched_test

import (
	"math"
	"reflect"
	"testing"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/cluster"
	"github.com/mmsim/staggered/internal/sched"
)

// churnConfig is the quick geometry with a farm big enough to hold the
// whole catalog (no materialization noise) and a prefix cache sized
// for the Zipf hot head, so the cache hit rate isolates the tier's
// reaction to popularity churn.
func churnConfig(seed uint64) sched.Config {
	cfg := sched.SmallConfig(64, 20)
	cfg.CapacityFragments = 120 // 40 slots: every object stays resident
	cfg.ZipfSkew = 1.1
	cfg.ArrivalsPerHour = 10000
	cfg.Seed = seed
	cfg.WarmupIntervals = 200
	cfg.Cache = &cache.Spec{BudgetBytes: 256 << 20}
	return cfg
}

// runChurn runs cfg on a 1-member cluster, whose driver owns the
// popularity churn, flipping at flipAt (0 never flips).
func runChurn(t *testing.T, cfg sched.Config, flipAt int) sched.Result {
	t.Helper()
	sim, err := cluster.New(cluster.Config{Servers: 1, Base: cfg, FlipAt: flipAt})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Servers[0]
}

// churnWindow is the churn test's window length, in intervals.
const churnWindow = 200

// churnHitRates returns the cache hit rate of each of the first
// windows churnWindow-interval windows of seed's measurement.  A run
// cut after k windows is the first k windows of a longer one, so
// window k's rate is the difference of the counters of the runs cut
// after k and k+1 windows.
func churnHitRates(t *testing.T, seed uint64, flipAt, windows int) []float64 {
	t.Helper()
	cfg := churnConfig(seed)
	var rates []float64
	var served, requests int
	for k := 1; k <= windows; k++ {
		cfg.MeasureIntervals = k * churnWindow
		r := runChurn(t, cfg, flipAt)
		if r.Requests == requests {
			t.Fatalf("seed %d: window %d saw no requests", seed, k-1)
		}
		rates = append(rates, float64(r.ServedFromCache-served)/float64(r.Requests-requests))
		served, requests = r.ServedFromCache, r.Requests
	}
	return rates
}

// TestZipfFlipReconverges drives the popularity-churn scenario through
// the engine's cache tier, paired: each seed runs with and without a
// flip that rotates the shared draw as window 4 of 10 opens.  Before
// the flip the two runs are one run, window for window.  In the flip's
// window the hot head sits on objects the cache does not hold, so the
// hit rate drops at least 0.1 below the unflipped run's (seeds 1–8
// read 0.22–0.43 against 0.48–0.69).  The dip is over within that
// window: once the popularity-decay cache has re-converged, the run is
// the unflipped one under a relabelling of the catalog, so every later
// window reads the unflipped run's rate to two decimals.
func TestZipfFlipReconverges(t *testing.T) {
	const flipWindow, windows = 4, 10
	flipAt := churnConfig(0).WarmupIntervals + flipWindow*churnWindow
	for seed := uint64(1); seed <= 8; seed++ {
		calm := churnHitRates(t, seed, 0, windows)
		churned := churnHitRates(t, seed, flipAt, windows)
		if !reflect.DeepEqual(churned[:flipWindow], calm[:flipWindow]) {
			t.Errorf("seed %d: windows before the flip differ: %.3f, unflipped %.3f", seed, churned, calm)
		}
		if churned[flipWindow] > calm[flipWindow]-0.1 {
			t.Errorf("seed %d: the flip did not bite: hit rate %.3f in its window, unflipped %.3f",
				seed, churned[flipWindow], calm[flipWindow])
		}
		for w := flipWindow + 1; w < windows; w++ {
			if math.Abs(churned[w]-calm[w]) >= 0.005 {
				t.Errorf("seed %d: window %d read %.3f, unflipped %.3f: no re-convergence", seed, w, churned[w], calm[w])
			}
		}
	}
}

// TestZipfFlipOffIsByteIdentical pins that the churn option is inert
// when disabled: FlipAt = 0, or a flip the run ends before, must not
// change a Result in any byte (the golden configurations all run with
// it off), while a mid-measurement flip must change it.
func TestZipfFlipOffIsByteIdentical(t *testing.T) {
	cfg := churnConfig(9)
	cfg.MeasureIntervals = 4 * churnWindow

	base := runChurn(t, cfg, 0)
	if !reflect.DeepEqual(runChurn(t, cfg, 0), base) {
		t.Fatal("re-run with identical config diverged — determinism broke")
	}
	if late := runChurn(t, cfg, cfg.WarmupIntervals+cfg.MeasureIntervals); !reflect.DeepEqual(late, base) {
		t.Fatalf("a flip after the run's end changed it:\n got %+v\nwant %+v", late, base)
	}
	if reflect.DeepEqual(runChurn(t, cfg, cfg.WarmupIntervals+2*churnWindow), base) {
		t.Fatal("mid-measurement flip had no effect at all — the hook is dead")
	}
}
