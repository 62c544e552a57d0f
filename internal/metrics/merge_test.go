package metrics

import (
	"math"
	"testing"
)

// TestTallyMergeMatchesSequentialAdds pins the Tally merge contract:
// merging two tallies is observation-exact — identical to Adding every
// observation to one tally.
func TestTallyMergeMatchesSequentialAdds(t *testing.T) {
	a := []float64{0.5, 3, 12, 0.25}
	b := []float64{7, 0.125, 42}

	var split, whole Tally
	for _, x := range a {
		split.Add(x)
		whole.Add(x)
	}
	var other Tally
	for _, x := range b {
		other.Add(x)
		whole.Add(x)
	}
	split.Merge(other)

	if split.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", split.N(), whole.N())
	}
	if split.Min() != whole.Min() || split.Max() != whole.Max() {
		t.Errorf("merged extrema = [%v, %v], want [%v, %v]",
			split.Min(), split.Max(), whole.Min(), whole.Max())
	}
	if split.Mean() != whole.Mean() {
		t.Errorf("merged mean = %v, want %v", split.Mean(), whole.Mean())
	}
	if math.Abs(split.StdDev()-whole.StdDev()) > 1e-12 {
		t.Errorf("merged stddev = %v, want %v", split.StdDev(), whole.StdDev())
	}
}

// TestTallyMergeEmpty pins both degenerate cases: merging an empty
// tally is a no-op, and merging into an empty tally copies.
func TestTallyMergeEmpty(t *testing.T) {
	var full Tally
	full.Add(2)
	full.Add(4)

	var empty Tally
	before := full
	full.Merge(empty)
	if full != before {
		t.Errorf("merging an empty tally changed %+v to %+v", before, full)
	}

	var target Tally
	target.Merge(full)
	if target != full {
		t.Errorf("merging into an empty tally = %+v, want %+v", target, full)
	}
}

// TestRunMergeCounters pins that every event counter adds, including
// the station population and the 64-bit byte counter.
func TestRunMergeCounters(t *testing.T) {
	a := Run{
		Technique: "simple striping", Stations: 8, DistMean: 20,
		WarmupSeconds: 100, MeasureSeconds: 600,
		Displays: 10, Materializa: 3, Replications: 1, Hiccups: 2, Coalescings: 4,
		UniqueResidents: 20, Requests: 15, DegradedHiccups: 5, AbortedDisplays: 1,
		RejectedDegraded: 2, StarvedMaterializations: 1,
		ServedFromCache: 6, BatchedFollowers: 3, CacheHitBytes: 1 << 32, OpenRejected: 7,
	}
	b := Run{
		Technique: "simple striping", Stations: 8, DistMean: 20,
		WarmupSeconds: 100, MeasureSeconds: 600,
		Displays: 5, Materializa: 2, Replications: 3, Hiccups: 1, Coalescings: 6,
		UniqueResidents: 19, Requests: 9, DegradedHiccups: 1, AbortedDisplays: 2,
		RejectedDegraded: 1, StarvedMaterializations: 4,
		ServedFromCache: 2, BatchedFollowers: 1, CacheHitBytes: 1 << 32, OpenRejected: 3,
	}
	a.Merge(b)

	if a.Stations != 16 {
		t.Errorf("Stations = %d, want 16", a.Stations)
	}
	want := Run{
		Displays: 15, Materializa: 5, Replications: 4, Hiccups: 3, Coalescings: 10,
		UniqueResidents: 39, Requests: 24, DegradedHiccups: 6, AbortedDisplays: 3,
		RejectedDegraded: 3, StarvedMaterializations: 5,
		ServedFromCache: 8, BatchedFollowers: 4, OpenRejected: 10,
	}
	checks := []struct {
		name      string
		got, want int
	}{
		{"Displays", a.Displays, want.Displays},
		{"Materializa", a.Materializa, want.Materializa},
		{"Replications", a.Replications, want.Replications},
		{"Hiccups", a.Hiccups, want.Hiccups},
		{"Coalescings", a.Coalescings, want.Coalescings},
		{"UniqueResidents", a.UniqueResidents, want.UniqueResidents},
		{"Requests", a.Requests, want.Requests},
		{"DegradedHiccups", a.DegradedHiccups, want.DegradedHiccups},
		{"AbortedDisplays", a.AbortedDisplays, want.AbortedDisplays},
		{"RejectedDegraded", a.RejectedDegraded, want.RejectedDegraded},
		{"StarvedMaterializations", a.StarvedMaterializations, want.StarvedMaterializations},
		{"ServedFromCache", a.ServedFromCache, want.ServedFromCache},
		{"BatchedFollowers", a.BatchedFollowers, want.BatchedFollowers},
		{"OpenRejected", a.OpenRejected, want.OpenRejected},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if a.CacheHitBytes != 1<<33 {
		t.Errorf("CacheHitBytes = %d, want %d", a.CacheHitBytes, int64(1)<<33)
	}
	if a.Technique != "simple striping" {
		t.Errorf("Technique = %q, want unchanged", a.Technique)
	}
	if a.DistMean != 20 {
		t.Errorf("DistMean = %v, want unchanged 20", a.DistMean)
	}
}

// TestRunMergeRatiosAndWindows pins the ratio-field semantics: busy
// fractions combine as MeasureSeconds-weighted averages, and the
// window lengths take the maximum (shared-clock runs overlap), so
// Throughput sums across a same-window merge.
func TestRunMergeRatiosAndWindows(t *testing.T) {
	a := Run{MeasureSeconds: 600, TertiaryBusy: 0.9, DiskBusy: 0.5, Displays: 100}
	b := Run{MeasureSeconds: 300, TertiaryBusy: 0.3, DiskBusy: 0.2, Displays: 50}
	a.Merge(b)

	if want := (0.9*600 + 0.3*300) / 900; math.Abs(a.TertiaryBusy-want) > 1e-15 {
		t.Errorf("TertiaryBusy = %v, want %v", a.TertiaryBusy, want)
	}
	if want := (0.5*600 + 0.2*300) / 900; math.Abs(a.DiskBusy-want) > 1e-15 {
		t.Errorf("DiskBusy = %v, want %v", a.DiskBusy, want)
	}
	if a.MeasureSeconds != 600 {
		t.Errorf("MeasureSeconds = %v, want max 600", a.MeasureSeconds)
	}

	// Equal windows: the aggregate throughput is the sum of parts.
	x := Run{MeasureSeconds: 3600, Displays: 100}
	y := Run{MeasureSeconds: 3600, Displays: 40}
	sum := x.Throughput() + y.Throughput()
	x.Merge(y)
	if got := x.Throughput(); math.Abs(got-sum) > 1e-9 {
		t.Errorf("merged throughput = %v, want %v", got, sum)
	}
}

// TestRunMergePartialWindow pins the dead-member weighting contract
// (DESIGN.md §14): a member killed mid-window reports only the
// MeasureSeconds it was alive for, and Merge weights its busy ratios
// by that partial window — a quarter-window member contributes a
// quarter of the weight, so the merged ratio is the true time average
// instead of an unweighted mean skewed toward a member that wasn't
// there.  The orphaned-display counter adds like every other event
// count.
func TestRunMergePartialWindow(t *testing.T) {
	alive := Run{
		MeasureSeconds: 600, DiskBusy: 0.6, TertiaryBusy: 0.4,
		Displays: 120,
	}
	dead := Run{
		MeasureSeconds: 150, DiskBusy: 0.8, TertiaryBusy: 1.0,
		Displays: 20, AbortedDisplays: 5, OrphanedDisplays: 5,
	}
	alive.Merge(dead)

	if want := (0.6*600 + 0.8*150) / 750; math.Abs(alive.DiskBusy-want) > 1e-15 {
		t.Errorf("DiskBusy = %v, want time-weighted %v (unweighted mean would be 0.7)", alive.DiskBusy, want)
	}
	if want := (0.4*600 + 1.0*150) / 750; math.Abs(alive.TertiaryBusy-want) > 1e-15 {
		t.Errorf("TertiaryBusy = %v, want time-weighted %v", alive.TertiaryBusy, want)
	}
	// The merged window is the shared-clock span, not the sum: the dead
	// member's 150 live seconds overlap the survivor's 600.
	if alive.MeasureSeconds != 600 {
		t.Errorf("MeasureSeconds = %v, want max 600", alive.MeasureSeconds)
	}
	if alive.Displays != 140 || alive.AbortedDisplays != 5 || alive.OrphanedDisplays != 5 {
		t.Errorf("event counters = %d/%d/%d, want 140/5/5",
			alive.Displays, alive.AbortedDisplays, alive.OrphanedDisplays)
	}
}

// TestRunMergeMixedTechniques pins the degradation rules for the
// identity fields.
func TestRunMergeMixedTechniques(t *testing.T) {
	a := Run{Technique: "simple striping", DistMean: 20}
	a.Merge(Run{Technique: "virtual data replication", DistMean: 10})
	if a.Technique != "mixed" {
		t.Errorf("Technique = %q, want mixed", a.Technique)
	}
	if a.DistMean != 0 {
		t.Errorf("DistMean = %v, want 0 on disagreement", a.DistMean)
	}

	var empty Run
	empty.Merge(Run{Technique: "simple striping"})
	if empty.Technique != "simple striping" {
		t.Errorf("Technique = %q, want adopted from first merge", empty.Technique)
	}
}

// TestRunMergeLatency pins that the latency tally merges
// observation-exactly through Run.Merge.
func TestRunMergeLatency(t *testing.T) {
	var a, b, whole Run
	for _, x := range []float64{1, 2, 3} {
		a.Latency.Add(x)
		whole.Latency.Add(x)
	}
	for _, x := range []float64{10, 20} {
		b.Latency.Add(x)
		whole.Latency.Add(x)
	}
	a.Merge(b)
	if a.Latency != whole.Latency {
		t.Errorf("merged latency tally = %+v, want %+v", a.Latency, whole.Latency)
	}
}
