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
// incremental state: plain striping, staggered striping with
// Algorithm 1+2 (release rescheduling on coalescing moves), closed
// loops with think time (wakeup buckets), and the VDR baseline
// (cluster job buckets).
func determinismConfigs() map[string]Config {
	staggered := smallConfig(48, 20)
	staggered.K = 1
	staggered.Fragmented = true
	staggered.Coalescing = true
	staggered.Seed = 3

	think := smallConfig(32, 10)
	think.ThinkMeanSeconds = 30
	think.Seed = 4

	return map[string]Config{
		"plain":     smallConfig(64, 43.5),
		"staggered": staggered,
		"think":     think,
	}
}

func TestStripedDeterministic(t *testing.T) {
	for name, cfg := range determinismConfigs() {
		t.Run(name, func(t *testing.T) {
			first, err := NewEngine(cfg, &stripedTech{})
			if err != nil {
				t.Fatal(err)
			}
			second, err := NewEngine(cfg, &stripedTech{})
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
