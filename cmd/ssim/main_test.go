package main

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/mmsim/staggered/internal/fault"
)

// TestClusterOnlyFlags pins that a closed-loop run (-arrivals 0) names
// the set cluster flags it would ignore, -servers included, so ssim
// exits 2 instead of silently running one engine.
func TestClusterOnlyFlags(t *testing.T) {
	for _, tc := range []struct {
		name     string
		arrivals float64
		set      []string
		want     []string
	}{
		{"closed loop drops cluster flags", 0,
			[]string{"scale", "stations", "servers", "dispatch", "healbudget", "replicadepth"},
			[]string{"-servers", "-dispatch", "-healbudget", "-replicadepth"}},
		{"a negative rate is no open run", -5, []string{"dispatch"}, []string{"-dispatch"}},
		{"closed loop reads its own flags", 0,
			[]string{"scale", "technique", "zipf", "faults", "trace"}, nil},
		{"an open run reads every cluster flag", 6000,
			[]string{"servers", "dispatch", "healbudget", "replicadepth", "arrivals"}, nil},
	} {
		if got := clusterOnly(tc.arrivals, tc.set, nil); !reflect.DeepEqual(got, tc.want) {
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

// TestLoneServerFaults pins that server: clauses in a closed-loop run
// are caught by the same rule as the cluster flags, so ssim exits 2
// naming them instead of failing in the engine's plan validation; any
// open run, a 1-server one included, executes them in the driver.
func TestLoneServerFaults(t *testing.T) {
	for _, tc := range []struct {
		faults   string
		arrivals float64
		want     bool
	}{
		{"server:0@1000-2000", 0, true},
		{"fail:7@900-1500; server:1@2000", 0, true},
		{"fail:7@900-1500; server:1@2000", 6000, false},
		{"server:0@1000-2000", 6000, false},
		{"fail:7@900-1500; slow:3@1800-2400; tert@0-600", 0, false},
	} {
		plan, err := fault.Parse(tc.faults)
		if err != nil {
			t.Fatal(err)
		}
		got := slices.Contains(clusterOnly(tc.arrivals, nil, plan), "server: faults")
		if got != tc.want {
			t.Errorf("clusterOnly(%v, %q) names server faults: %v, want %v", tc.arrivals, tc.faults, got, tc.want)
		}
	}
}

// runSsim runs the command on args and returns its exit code, stdout
// and stderr.
func runSsim(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestClusterFarmLine pins that an open run reports the configuration
// the technique normalized: staggered at stride 1 prints stride 1, not
// the base geometry's stride 5.
func TestClusterFarmLine(t *testing.T) {
	for _, servers := range []string{"1", "2"} {
		_, out, _ := runSsim("-scale", "quick", "-servers", servers, "-technique", "staggered", "-stride", "1",
			"-arrivals", "6000", "-measure", "300")
		if !strings.Contains(out, "technique:            staggered striping (k=1)\n") ||
			!strings.Contains(out, "farm:                 50 disks, stride 1, 5-disk degree") {
			t.Errorf("-servers %s: technique and farm lines disagree:\n%s", servers, out)
		}
	}
}

// TestClusterTrace pins that -trace N prints the first N events of an
// open run, each tagged with its member, and nothing past them.
func TestClusterTrace(t *testing.T) {
	code, out, errOut := runSsim("-scale", "quick", "-servers", "2", "-arrivals", "6000", "-measure", "300", "-trace", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	lines := strings.Split(out, "\n")
	for i, line := range lines[:3] {
		if !strings.HasPrefix(line, "server ") || !strings.Contains(line, "obj=") {
			t.Fatalf("line %d is not a member event: %q", i, line)
		}
	}
	if !strings.HasPrefix(lines[3], "cluster:") {
		t.Fatalf("line 3 is %q, want the cluster header after 3 events", lines[3])
	}
}

// TestClusterStarvationExit pins that an open run whose member starves
// at the Place retry cap exits 1 with the typed diagnosis on stderr, as
// a closed-loop run does, and still prints its report.
func TestClusterStarvationExit(t *testing.T) {
	args := []string{"-scale", "quick", "-technique", "staggered", "-stride", "1", "-arrivals", "6000", "-stations", "256"}
	code, out, errOut := runSsim(args...)
	if code != 1 || !strings.Contains(errOut, "materializations starved") || !strings.Contains(errOut, "server 0") {
		t.Fatalf("starving run: exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "cluster:") {
		t.Errorf("starving run printed no report:\n%s", out)
	}
}

// TestConfigErrorExitCode pins that a configuration the build refuses
// exits 1 whichever workload builds it, the engine of a closed-loop
// run or cluster.New of an open one, while a flag value outside its
// set, an unknown -dispatch included, is a usage error (exit 2).
func TestConfigErrorExitCode(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-scale", "quick", "-faults", "fail:99@100"}, 1},
		{[]string{"-scale", "quick", "-faults", "fail:99@100", "-arrivals", "6000"}, 1},
		{[]string{"-scale", "quick", "-arrivals", "6000", "-dispatch", "nearest"}, 2},
	} {
		if code, _, errOut := runSsim(tc.args...); code != tc.want {
			t.Errorf("ssim %s: exit %d, want %d (stderr %q)", strings.Join(tc.args, " "), code, tc.want, errOut)
		}
	}
}
