package sched

import (
	"reflect"
	"testing"
)

// The engines' hot paths keep incremental state (busy counters, event
// buckets, scratch buffers, object pools) instead of rescanning the
// world each interval.  These tests pin the contract that none of
// that bookkeeping leaks across runs: the same seed must reproduce
// the exact same Result, field for field.

// determinismConfigs covers the code paths with nontrivial
// incremental state: plain striping, staggered striping (k = 1, where
// the striped technique runs Algorithms 1+2: release rescheduling on
// coalescing moves), and the VDR baseline (cluster job buckets).
func determinismConfigs() map[string]Config {
	staggered := smallConfig(48, 20)
	staggered.K = 1
	staggered.Seed = 3

	return map[string]Config{
		"plain":     smallConfig(64, 43.5),
		"staggered": staggered,
	}
}

func TestStripedDeterministic(t *testing.T) {
	for name, cfg := range determinismConfigs() {
		t.Run(name, func(t *testing.T) {
			staggered := name == "staggered"
			first, err := NewEngine(cfg, &stripedTech{staggered: staggered})
			if err != nil {
				t.Fatal(err)
			}
			second, err := NewEngine(cfg, &stripedTech{staggered: staggered})
			if err != nil {
				t.Fatal(err)
			}
			a, b := first.Run(), second.Run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("same seed, different results:\n  first:  %+v\n  second: %+v", a, b)
			}
		})
	}
}

func TestVDRDeterministic(t *testing.T) {
	for name, cfg := range determinismConfigs() {
		t.Run(name, func(t *testing.T) {
			first, err := NewEngine(cfg, &vdrTech{})
			if err != nil {
				t.Fatal(err)
			}
			second, err := NewEngine(cfg, &vdrTech{})
			if err != nil {
				t.Fatal(err)
			}
			a, b := first.Run(), second.Run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("same seed, different results:\n  first:  %+v\n  second: %+v", a, b)
			}
		})
	}
}

// TestRunCheckedAlreadyRun pins the double-Run contract: RunChecked
// on an engine that has already run (or was primed and stepped)
// returns ErrAlreadyRun instead of panicking, and Prime is idempotent
// — priming twice must not double-seed the stations.
func TestRunCheckedAlreadyRun(t *testing.T) {
	cfg := smallConfig(4, 10)
	cfg.WarmupIntervals, cfg.MeasureIntervals = 10, 50

	e, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunChecked(); err != ErrAlreadyRun {
		t.Fatalf("second RunChecked returned %v, want ErrAlreadyRun", err)
	}

	// Prime idempotence: a double-primed engine steps identically to a
	// Run (seeding stations twice would panic the workload layer).
	a, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	a.Prime()
	a.Prime()
	for a.Now() < cfg.WarmupIntervals {
		a.StepOne()
	}
	a.ResetWindow()
	for a.HasPendingWork() {
		a.StepOne()
	}
	got := a.Snapshot()
	a.Close()
	if _, err := a.RunChecked(); err != ErrAlreadyRun {
		t.Fatalf("RunChecked after stepping returned %v, want ErrAlreadyRun", err)
	}

	b, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	if want := b.Run(); got != want {
		t.Fatalf("primitive-driven run diverged from Run():\n got %+v\nwant %+v", got, want)
	}
}
