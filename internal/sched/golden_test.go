package sched

import (
	"flag"
	"fmt"
	"strings"
	"testing"
)

// The calendar layer under the engines (the dueRings) must never
// change the simulated outcome.  This test pins the
// results of 49 configurations byte-for-byte: the dump was
// generated with the pre-wheel engines (map-keyed buckets over the
// binary-heap era kernel) and every later calendar swap has to
// reproduce it exactly.
//
// Regenerate with:  go test ./internal/sched -run TestGoldenSweep -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_sweep.txt from the current engines")

// goldenConfigs enumerates the 49 pinned configurations: both engines
// across the three paper distributions and a station sweep (48 runs),
// plus staggered striping with Algorithms 1+2, the variant with
// nontrivial calendar traffic (coalescing moves reschedule releases).
func goldenConfigs() []struct {
	name string
	cfg  Config
	tech Technique
} {
	var out []struct {
		name string
		cfg  Config
		tech Technique
	}
	add := func(name string, cfg Config, tech Technique) {
		out = append(out, struct {
			name string
			cfg  Config
			tech Technique
		}{name, cfg, tech})
	}
	for _, mean := range []float64{10, 20, 43.5} {
		for _, st := range []int{1, 8, 32, 64} {
			for _, seed := range []uint64{1, 2} {
				cfg := smallConfig(st, mean)
				cfg.Seed = seed
				name := fmt.Sprintf("mean%v-st%d-seed%d", mean, st, seed)
				add(name+"-striped", cfg, &stripedTech{})
				add(name+"-vdr", cfg, &vdrTech{})
			}
		}
	}
	staggered := smallConfig(48, 20)
	staggered.K = 1
	staggered.Seed = 3
	add("staggered-alg12", staggered, &stripedTech{staggered: true})
	return out
}

func goldenDump(t *testing.T) string {
	return goldenDumpWith(t, nil)
}

// goldenDumpWith renders the 49-config dump, optionally mutating each
// configuration first — the hook TestEmptyFaultPlanGolden uses to
// prove an empty fault plan changes nothing.
func goldenDumpWith(t *testing.T, mutate func(*Config)) string {
	t.Helper()
	var b strings.Builder
	for _, gc := range goldenConfigs() {
		if mutate != nil {
			mutate(&gc.cfg)
		}
		e, err := NewEngine(gc.cfg, gc.tech)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		fmt.Fprintf(&b, "%s: %+v\n", gc.name, legacyView(e.Run()))
	}
	return b.String()
}

func TestGoldenSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("49-configuration sweep is not short")
	}
	cfgs := goldenConfigs()
	if len(cfgs) != 49 {
		t.Fatalf("golden sweep has %d configurations, want 49", len(cfgs))
	}
	checkGoldenDump(t, "golden_sweep.txt", goldenDump(t), *updateGolden, "update-golden")
}
