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

// TestPopularityLabel pins the workload line's popularity: a Zipf run
// names its skew, a geometric run its mean.
func TestPopularityLabel(t *testing.T) {
	for _, tc := range []struct {
		zipfSkew, distMean float64
		want               string
	}{
		{0, 20, "skewed (geometric mean 20)"},
		{0, 10, "highly skewed (geometric mean 10)"},
		{0, 43.5, "uniform (geometric mean 43.5)"},
		{1.1, 20, "Zipf θ=1.1"},
		{0.4, 20, "Zipf θ=0.4"},
	} {
		if got := popularityLabel(tc.zipfSkew, tc.distMean); got != tc.want {
			t.Errorf("popularityLabel(%v, %v) = %q, want %q", tc.zipfSkew, tc.distMean, got, tc.want)
		}
	}
}
