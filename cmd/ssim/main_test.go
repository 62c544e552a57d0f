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
