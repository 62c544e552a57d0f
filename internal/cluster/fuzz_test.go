package cluster

import (
	"reflect"
	"testing"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/sched"
)

// FuzzClusterPlan drives whole clusters through drawn server plans:
// 1–5 members, every technique and dispatch policy, a heal budget and
// replica depth,
// the memory tier on or off, and up to eight kill windows decoded from
// byte triples (member, kill interval, outage length; length 255 is a
// permanent kill).  The windows may overlap, cover the whole fleet,
// restart in the kill round, run past the horizon, or name a member
// one past the fleet.  Every draw either fails New with an error or
// runs with checkRounds holding after every round, and a second run of
// the same draw returns the identical Result.
func FuzzClusterPlan(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(0), uint8(1), false, []byte{0, 60, 50, 1, 60, 50})
	f.Add(uint64(2), uint8(2), uint8(2), uint8(6), true, []byte{0, 5, 40, 1, 20, 30, 2, 25, 255, 0, 30, 0})
	f.Add(uint64(3), uint8(4), uint8(1), uint8(0), true, []byte{4, 0, 0, 3, 60, 1, 1, 250, 10})
	f.Add(uint64(4), uint8(2), uint8(2), uint8(3), false, []byte{0, 10, 255, 1, 10, 255, 2, 10, 255})
	f.Add(uint64(5), uint8(1), uint8(1), uint8(2), false, []byte{2, 10, 10})
	// Two members, popularity, heal budget 2 and depth 2, member 0 down
	// over [48, 96) and [120, 168): at round 150 the pass adopts two
	// replicas onto member 1, and the second adoption evicts the first.
	f.Add(uint64(0), uint8(1), uint8('2'), uint8('F'), true, []byte("0x0000"))
	// Three VDR members, leastloaded, heal budget 3: member 1 killed
	// for good at round 30, member 2 down over [60, 120).
	f.Add(uint64(6), uint8(12), uint8(1), uint8(3), false, []byte{1, 30, 255, 2, 60, 60})
	// One member under popularity with the memory tier and heal budget
	// 1, down over [60, 110): every arrival of the outage is lost, and
	// the heal pass finds no live member to take the replicas.
	f.Add(uint64(7), uint8(0), uint8(2), uint8(1), true, []byte{0, 60, 50})
	f.Fuzz(func(t *testing.T, seed uint64, members, policy, heal uint8, tier bool, plan []byte) {
		n := 1 + int(members)%5
		base := quickBase(16, seed)
		base.WarmupIntervals, base.MeasureIntervals = 40, 200
		base.ZipfSkew = 1.1
		base.ArrivalsPerHour = 4000 * float64(n)
		if tier {
			base.Cache = &cache.Spec{BudgetBytes: 64 << 20, BatchWindow: 4}
		}
		servers := fault.NewPlan()
		for i := 0; i+2 < len(plan) && i < 24; i += 3 {
			m, at, span := int(plan[i])%(n+1), int(plan[i+1]), int(plan[i+2])
			if span == 255 {
				servers.FailServer(m, at)
			} else {
				servers.FailServerUntil(m, at, at+span)
			}
		}
		cfg := Config{
			Servers:         n,
			Technique:       sched.TechniqueKeys()[int(members)/5%len(sched.TechniqueKeys())],
			Dispatch:        Policies()[int(policy)%len(Policies())],
			Base:            base,
			ServerPlan:      servers,
			HealBudget:      int(heal) % 4,
			ReplicaDepth:    int(heal) / 4 % 3,
			SampleIntervals: 25,
		}
		run := func() (Result, error) {
			sim, err := New(cfg)
			if err != nil {
				return Result{}, err
			}
			checkRounds(t, sim)
			return sim.Run()
		}
		first, err1 := run()
		second, err2 := run()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("same draw, different errors: %v / %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("same draw, different results:\n first %+v\nsecond %+v", first.Aggregate, second.Aggregate)
		}
	})
}
