package sched_test

import (
	"reflect"
	"testing"

	"github.com/mmsim/staggered/internal/experiment"
	"github.com/mmsim/staggered/internal/sched"
)

// runOpen runs cfg's open workload under simple striping: a 1-member
// cluster, whose driver draws the arrivals.
func runOpen(t *testing.T, cfg sched.Config) sched.Result {
	t.Helper()
	res, err := experiment.Run(experiment.TechStriped, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCacheOpenArrivalsDeterministic repeats the determinism check for
// the open-system workload the cache experiments use (Poisson arrivals
// + Zipf popularity), where the idle-station pool and the driver's
// arrival stream are additional state that must replay exactly.
func TestCacheOpenArrivalsDeterministic(t *testing.T) {
	run := func() sched.Result {
		cfg := sched.SmallConfig(64, 20)
		cfg.ZipfSkew = 0.7
		cfg.ArrivalsPerHour = 6000
		cfg.Cache = sched.CacheSpec()
		return runOpen(t, cfg)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same config, different open-arrivals results:\n  first:  %+v\n  second: %+v", a, b)
	}
	if a.BatchedFollowers == 0 {
		t.Error("open Zipf workload produced no batched followers; the determinism check exercised nothing")
	}
}

// TestOpenArrivalsDiskOnly pins the open-system workload without the
// tier: arrivals must balance stations and rejections, and the zero
// cache counters prove open mode alone doesn't touch the tier path.
func TestOpenArrivalsDiskOnly(t *testing.T) {
	cfg := sched.SmallConfig(16, 20)
	cfg.ArrivalsPerHour = 20000 // deliberately overdriven: must reject
	res := runOpen(t, cfg)
	if res.OpenRejected == 0 {
		t.Error("overdriven open system rejected nothing")
	}
	if res.Displays == 0 {
		t.Error("open system completed nothing")
	}
	if res.ServedFromCache != 0 || res.BatchedFollowers != 0 {
		t.Errorf("open mode without a cache spec touched the tier: %+v", res)
	}
}
