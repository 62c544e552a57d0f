package sched

import (
	"fmt"
	"testing"

	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/rng"
	"github.com/mmsim/staggered/internal/tertiary"
)

// chaosScenarios is how many randomized fault scenarios the chaos
// harness runs.  The acceptance floor is 200; a few more cost little.
const chaosScenarios = 240

// chaosConfig is a tiny farm that still exercises every subsystem:
// materialization pressure (farm fits ~15 of 20 objects), mixed
// strides, and both engines.  Warm-up is zero so the window counters
// equal the lifetime counters the invariants reason about.
func chaosConfig(stations int, mean float64, seed uint64) Config {
	return Config{
		D:                 20,
		K:                 4,
		CapacityFragments: 30,
		Objects:           20,
		Subobjects:        10,
		M:                 4,
		BDisk:             20e6,
		FragmentBytes:     1512000,
		Tertiary:          tertiary.Table3,
		TapeLayout:        tertiary.DiskMatched,
		Stations:          stations,
		DistMean:          mean,
		Seed:              seed,
		WarmupIntervals:   0,
		MeasureIntervals:  400,
		PlaceRetryLimit:   8,
	}
}

// chaosPlan draws a random but deterministic fault plan: a mix of
// one-shot and repaired disk failures, slow windows, tertiary
// outages, and occasionally a wear process, all inside the run.
func chaosPlan(s *rng.Stream, d, horizon int) *fault.Plan {
	p := fault.NewPlan()
	for i, n := 0, 1+s.Intn(4); i < n; i++ {
		at := s.Intn(horizon)
		switch s.Intn(5) {
		case 0:
			p.FailDisk(s.Intn(d), at)
		case 1:
			p.FailDiskUntil(s.Intn(d), at, at+1+s.Intn(horizon/2))
		case 2:
			p.SlowDisk(s.Intn(d), at, at+1+s.Intn(horizon/2))
		case 3:
			p.TertiaryOutage(at, at+1+s.Intn(horizon/2))
		case 4:
			lo := s.Intn(d)
			hi := lo + s.Intn(d-lo)
			disks := make([]int, 0, hi-lo+1)
			for f := lo; f <= hi; f++ {
				disks = append(disks, f)
			}
			p.WearProcess(disks, 20+s.Uniform(0, 60), 5+s.Uniform(0, 20), horizon, s.Uint64())
		}
	}
	return p
}

// TestChaos runs hundreds of seeded fault scenarios across all
// techniques and asserts the structural invariants a degraded run
// must keep: no negative counters and closed-loop station conservation
// (every station is queued or in delivery at quiescence) at the end,
// and after every interval display conservation (checkLedger:
// admitted = completed + aborted + active), nothing overdue
// (checkInFlight), zero hiccups (checkBounds) and, for the striped
// techniques, the admission conditions (checkStriped).  It runs in
// -short mode on purpose — scripts/ci.sh puts it under -race.
func TestChaos(t *testing.T) {
	techniques := []struct {
		key    string
		stride int
	}{
		{"striped", 0},
		{"staggered", 1},
		{"staggered", 2},
		{"staggered", 4},
		{"vdr", 0},
	}
	means := []float64{5, 10, 15}
	for i := 0; i < chaosScenarios; i++ {
		i := i
		tc := techniques[i%len(techniques)]
		name := fmt.Sprintf("%03d-%s-k%d", i, tc.key, tc.stride)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := rng.NewSource(uint64(1000 + i)).Stream("chaos")
			cfg := chaosConfig(2+s.Intn(10), means[s.Intn(len(means))], uint64(1+i))
			cfg.EvictionPressure = s.Intn(2) == 1
			cfg.Faults = chaosPlan(s, cfg.D, cfg.MeasureIntervals)
			e, _, err := NewEngineFor(tc.key, cfg, tc.stride)
			if err != nil {
				t.Fatal(err)
			}
			e.stepCheck = func() {
				checkLedger(t, e)
				checkInFlight(t, e)
				checkBounds(t, e)
				checkStriped(t, e)
			}
			res, runErr := e.RunChecked()
			if runErr != nil {
				// Starvation is a legitimate outcome on a tiny farm
				// under fire — the error just has to be the typed one.
				if _, ok := runErr.(*StarvationError); !ok {
					t.Fatalf("RunChecked: %v", runErr)
				}
			}

			for _, c := range []struct {
				name  string
				value int
			}{
				{"Displays", res.Displays},
				{"Materializa", res.Materializa},
				{"Replications", res.Replications},
				{"Hiccups", res.Hiccups},
				{"Coalescings", res.Coalescings},
				{"UniqueResidents", res.UniqueResidents},
				{"Requests", res.Requests},
				{"DegradedHiccups", res.DegradedHiccups},
				{"AbortedDisplays", res.AbortedDisplays},
				{"RejectedDegraded", res.RejectedDegraded},
				{"StarvedMaterializations", res.StarvedMaterializations},
				{"Latency.N", res.Latency.N()},
			} {
				if c.value < 0 {
					t.Errorf("negative counter %s = %d", c.name, c.value)
				}
			}

			// Zero warm-up makes window counters lifetime counters.
			if res.Displays != e.completedTotal || res.AbortedDisplays != e.abortedTotal {
				t.Errorf("window/lifetime drift: Displays %d vs %d, Aborted %d vs %d",
					res.Displays, e.completedTotal, res.AbortedDisplays, e.abortedTotal)
			}

			// Closed-loop station conservation: every station is either
			// queued or in delivery; none leak.
			active := e.tech.activeDisplays()
			if out := e.stn.Outstanding(); out != cfg.Stations {
				t.Errorf("stuck stations: %d outstanding of %d", out, cfg.Stations)
			}
			if got := len(e.queue) + active; got != cfg.Stations {
				t.Errorf("station accounting: queue %d + active %d != stations %d",
					len(e.queue), active, cfg.Stations)
			}

			// The fault masks must return to the plan's terminal state:
			// counts never drift negative.
			if e.downCount < 0 || e.slowCount < 0 {
				t.Errorf("mask drift: downCount %d, slowCount %d", e.downCount, e.slowCount)
			}
		})
	}
}

// TestChaosDeterministic pins that a faulted run is exactly as
// reproducible as a clean one.
func TestChaosDeterministic(t *testing.T) {
	build := func() Result {
		s := rng.NewSource(424242).Stream("chaos")
		cfg := chaosConfig(8, 10, 7)
		cfg.Faults = chaosPlan(s, cfg.D, cfg.MeasureIntervals)
		e, _, err := NewEngineFor("staggered", cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := e.RunChecked()
		return res
	}
	a, b := build(), build()
	if a != b {
		t.Errorf("same seed, different faulted results:\n  first:  %+v\n  second: %+v", a, b)
	}
}

// TestShardedChaos reruns a slice of the chaos harness across all
// three techniques with eviction pressure on half the scenarios: the
// structural invariants of a degraded run (station conservation and no
// mask drift at the end, checkLedger, checkInFlight, checkBounds and
// checkStriped after every interval) must hold on every case.  The name
// dates from when this slice also ran a sharded engine; it is kept so
// the test and its 81 cases stay under the names they always had.
func TestShardedChaos(t *testing.T) {
	techniques := []struct {
		key    string
		stride int
	}{
		{"striped", 0},
		{"staggered", 2},
		{"vdr", 0},
	}
	means := []float64{5, 10, 15}
	for i := 0; i < 81; i++ {
		i := i
		tc := techniques[i%len(techniques)]
		t.Run(fmt.Sprintf("%03d-%s-k%d", i, tc.key, tc.stride), func(t *testing.T) {
			t.Parallel()
			s := rng.NewSource(uint64(7000 + i)).Stream("chaos")
			cfg := chaosConfig(2+s.Intn(10), means[s.Intn(len(means))], uint64(1+i))
			cfg.EvictionPressure = s.Intn(2) == 1
			cfg.Faults = chaosPlan(s, cfg.D, cfg.MeasureIntervals)
			e, _, err := NewEngineFor(tc.key, cfg, tc.stride)
			if err != nil {
				t.Fatal(err)
			}
			e.stepCheck = func() {
				checkLedger(t, e)
				checkInFlight(t, e)
				checkBounds(t, e)
				checkStriped(t, e)
			}
			_, runErr := e.RunChecked()
			if runErr != nil {
				if _, ok := runErr.(*StarvationError); !ok {
					t.Fatalf("RunChecked: %v", runErr)
				}
			}
			if e.downCount < 0 || e.slowCount < 0 {
				t.Errorf("mask drift: downCount %d, slowCount %d", e.downCount, e.slowCount)
			}
			// Closed loop: every station is queued or in delivery.
			active := e.tech.activeDisplays()
			if got := len(e.queue) + active; got != cfg.Stations {
				t.Errorf("station accounting: queue %d + active %d != stations %d",
					len(e.queue), active, cfg.Stations)
			}
		})
	}
}
