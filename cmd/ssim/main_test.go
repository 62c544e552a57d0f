package main

import (
	"reflect"
	"testing"
)

// TestClusterOnlyFlags pins that a run without -servers > 1 names the
// set cluster flags it would ignore, so ssim exits 2 instead of
// silently running one engine.
func TestClusterOnlyFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		servers int
		set     []string
		want    []string
	}{
		{"single engine drops cluster flags", 1,
			[]string{"scale", "stations", "dispatch", "healbudget", "replicadepth"},
			[]string{"-dispatch", "-healbudget", "-replicadepth"}},
		{"servers 0 is a single engine too", 0, []string{"dispatch"}, []string{"-dispatch"}},
		{"single engine reads its own flags", 1,
			[]string{"scale", "technique", "zipf", "arrivals", "faults", "servers"}, nil},
		{"cluster reads every cluster flag", 4,
			[]string{"servers", "dispatch", "healbudget", "replicadepth", "arrivals"}, nil},
	} {
		if got := clusterOnlyFlags(tc.servers, tc.set); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCacheWithoutTier pins that -cache without -cachemb > 0 or
// -batchwindow > 0 is refused instead of silently running with no
// memory tier.
func TestCacheWithoutTier(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		cacheMB, batchWindow int
		set                  []string
		want                 bool
	}{
		{"policy without a tier", 0, 0, []string{"scale", "cache"}, true},
		{"policy with a budget", 64, 0, []string{"cachemb", "cache"}, false},
		{"policy with batching only", 0, 8, []string{"batchwindow", "cache"}, false},
		{"zero budget is no tier", 0, 0, []string{"cachemb", "cache"}, true},
		{"no policy, no tier", 0, 0, []string{"scale"}, false},
	} {
		if got := cacheWithoutTier(tc.cacheMB, tc.batchWindow, tc.set); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}
