package sched

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/fault"
)

// Golden pin for degraded mode: the full Result, degraded-mode
// counters included, of striped, staggered k=1 and VDR runs under a
// disk failure with repair followed by a permanent one, a slow disk, a
// tertiary outage and a wear process, each with and without the memory
// tier (prefix cache and batching under open Zipf arrivals).  The
// fault-free goldens cannot see the admission refusals, aborts and
// degraded hiccups; this dump does.  Regenerate with:
//
//	go test ./internal/sched -run TestGoldenFaults -update-golden-faults

var updateGoldenFaults = flag.Bool("update-golden-faults", false,
	"rewrite testdata/golden_faults.txt from the current engines")

type faultGoldenConfig struct {
	name   string
	key    string
	stride int
	cfg    Config
}

func faultGoldenConfigs() []faultGoldenConfig {
	base := smallConfig(16, 10)
	warm, horizon := base.WarmupIntervals, base.WarmupIntervals+base.MeasureIntervals
	wearDisks := []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	plans := []struct {
		name string
		plan func() *fault.Plan
	}{
		{"fail-repair", func() *fault.Plan {
			return fault.NewPlan().FailDiskUntil(7, warm+100, warm+900).FailDisk(21, warm+1800)
		}},
		{"slow", func() *fault.Plan { return fault.NewPlan().SlowDisk(3, warm+200, warm+1200) }},
		{"tertiary", func() *fault.Plan { return fault.NewPlan().TertiaryOutage(warm+50, warm+1000) }},
		{"wear", func() *fault.Plan { return fault.NewPlan().WearProcess(wearDisks, 600, 100, horizon, 5) }},
	}
	techs := []struct {
		key    string
		stride int
	}{{"striped", 0}, {"staggered", 1}, {"vdr", 0}}
	var out []faultGoldenConfig
	for _, tc := range techs {
		for _, p := range plans {
			for _, cached := range []bool{false, true} {
				cfg := base
				cfg.CapacityFragments = 90 // room to stage on demand at k = 1
				cfg.EvictionPressure = true
				cfg.Faults = p.plan()
				name := fmt.Sprintf("%s-k%d-%s", tc.key, tc.stride, p.name)
				if cached {
					cfg.Stations = 32
					cfg.ZipfSkew = 0.7
					cfg.ArrivalsPerHour = 6000
					cfg.Cache = &cache.Spec{BudgetBytes: 256 << 20, BatchWindow: 8}
					name += "-cache"
				}
				out = append(out, faultGoldenConfig{name, tc.key, tc.stride, cfg})
			}
		}
	}
	return out
}

func TestGoldenFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault golden sweep is not short")
	}
	var b strings.Builder
	var rejected, aborted, degraded, followers int
	for _, gc := range faultGoldenConfigs() {
		e, _, err := NewEngineFor(gc.key, gc.cfg, gc.stride)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		r := e.Run()
		if r.Displays == 0 {
			t.Fatalf("%s: no displays, the run pins nothing", gc.name)
		}
		rejected += r.RejectedDegraded
		aborted += r.AbortedDisplays
		degraded += r.DegradedHiccups
		followers += r.BatchedFollowers
		fmt.Fprintf(&b, "%s: %+v\n", gc.name, r)
	}
	// A pin whose runs never refuse, abort, degrade or batch pins
	// nothing about degraded admission.
	if rejected == 0 || aborted == 0 || degraded == 0 || followers == 0 {
		t.Fatalf("weak pin: %d rejections, %d aborts, %d degraded hiccups, %d batched followers",
			rejected, aborted, degraded, followers)
	}
	checkGoldenDump(t, "golden_faults.txt", b.String(), *updateGoldenFaults, "update-golden-faults")
}
