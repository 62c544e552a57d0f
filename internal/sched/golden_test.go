package sched

import (
	"flag"
	"fmt"
	"strings"
	"testing"
)

// The calendar layer under the engines (event rings, tick wheels,
// wakeup buckets) must never change the simulated outcome.  This test
// pins the results of 51 configurations byte-for-byte: the dump was
// generated with the pre-wheel engines (map-keyed buckets over the
// binary-heap era kernel) and every later calendar swap has to
// reproduce it exactly.
//
// Regenerate with:  go test ./internal/sched -run TestGoldenSweep -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_sweep.txt from the current engines")

// goldenConfigs enumerates the 51 pinned configurations: both engines
// across the three paper distributions and a station sweep (48 runs),
// plus the variants with nontrivial calendar traffic — staggered
// striping with Algorithms 1+2, and think time on both engines.
func goldenConfigs() []struct {
	name    string
	cfg     Config
	striped bool
} {
	var out []struct {
		name    string
		cfg     Config
		striped bool
	}
	add := func(name string, cfg Config, striped bool) {
		out = append(out, struct {
			name    string
			cfg     Config
			striped bool
		}{name, cfg, striped})
	}
	for _, mean := range []float64{10, 20, 43.5} {
		for _, st := range []int{1, 8, 32, 64} {
			for _, seed := range []uint64{1, 2} {
				cfg := smallConfig(st, mean)
				cfg.Seed = seed
				name := fmt.Sprintf("mean%v-st%d-seed%d", mean, st, seed)
				add(name+"-striped", cfg, true)
				add(name+"-vdr", cfg, false)
			}
		}
	}
	staggered := smallConfig(48, 20)
	staggered.K = 1
	staggered.Fragmented = true
	staggered.Coalescing = true
	staggered.Seed = 3
	add("staggered-alg12", staggered, true)

	think := smallConfig(32, 10)
	think.ThinkMeanSeconds = 30
	think.Seed = 4
	add("think-striped", think, true)
	add("think-vdr", think, false)
	return out
}

func goldenDump(t *testing.T) string {
	return goldenDumpWith(t, nil)
}

// goldenDumpWith renders the 51-config dump, optionally mutating each
// configuration first — the hook TestEmptyFaultPlanGolden uses to
// prove an empty fault plan changes nothing.
func goldenDumpWith(t *testing.T, mutate func(*Config)) string {
	t.Helper()
	var b strings.Builder
	for _, gc := range goldenConfigs() {
		if mutate != nil {
			mutate(&gc.cfg)
		}
		var tech Technique = &vdrTech{}
		if gc.striped {
			tech = &stripedTech{}
		}
		e, err := NewEngine(gc.cfg, tech)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		fmt.Fprintf(&b, "%s: %+v\n", gc.name, legacyView(e.Run()))
	}
	return b.String()
}

func TestGoldenSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("51-configuration sweep is not short")
	}
	cfgs := goldenConfigs()
	if len(cfgs) != 51 {
		t.Fatalf("golden sweep has %d configurations, want 51", len(cfgs))
	}
	checkGoldenDump(t, "golden_sweep.txt", goldenDump(t), *updateGolden, "update-golden")
}
