package experiment

import (
	"reflect"
	"testing"
)

// TestScaleSweep100x pins the acceptance bar for the timing-wheel
// calendar: a 100x quick-geometry point — 5000 disks, 4000 objects,
// 2000 stations — completes even under the race detector (this test
// deliberately has no -short skip; scripts/ci.sh runs it with -race).
func TestScaleSweep100x(t *testing.T) {
	p, err := RunScalePoint(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.D != 5000 || p.Stations != 2000 {
		t.Fatalf("100x geometry is D=%d stations=%d, want 5000/2000", p.D, p.Stations)
	}
	if p.Displays == 0 {
		t.Fatal("100x run completed no displays; the model is not exercising the calendar")
	}
	if p.IntervalsSec <= 0 {
		t.Fatalf("nonpositive simulation rate %v", p.IntervalsSec)
	}
	if p.NsPerDisplay <= 0 {
		t.Fatalf("ns/display not recorded: %v", p.NsPerDisplay)
	}
	t.Logf("100x: %d displays, %.2fs wall, %.0f intervals/s", p.Displays, p.WallSeconds, p.IntervalsSec)
}

// TestScaleSweepTrajectory checks the multi-factor sweep plumbing at
// small factors: every point runs, in order, with growing geometry.
func TestScaleSweepTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("trajectory sweep is not short")
	}
	pts, err := ScaleSweep([]int{1, 2, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	for i, f := range []int{1, 2, 4} {
		if pts[i].Factor != f || pts[i].D != 50*f {
			t.Fatalf("point %d is factor=%d D=%d, want factor=%d D=%d", i, pts[i].Factor, pts[i].D, f, 50*f)
		}
	}
}

// TestScaleSweep1000xGeometry pins the 1000x point's shape without
// paying for the run: 50,000 disks and 20,000 stations, the ROADMAP
// scale ceiling.  The run itself is exercised by cmd/bench.
func TestScaleSweep1000xGeometry(t *testing.T) {
	cfg := ScaleConfig(1000, 1)
	if cfg.D != 50000 || cfg.Stations != 20000 || cfg.Objects != 40000 {
		t.Fatalf("1000x geometry is D=%d stations=%d objects=%d, want 50000/20000/40000",
			cfg.D, cfg.Stations, cfg.Objects)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("1000x config does not validate: %v", err)
	}
}

// TestScaleSweepParallelMatchesSequential checks the pooled
// multi-factor sweep returns the same simulation results as running
// the points one by one (wall-clock fields aside).
func TestScaleSweepParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep comparison is not short")
	}
	factors := []int{1, 2, 3, 4}
	pooled, err := ScaleSweep(factors, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range factors {
		p, err := RunScalePoint(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, want := pooled[i], p
		got.WallSeconds, want.WallSeconds = 0, 0
		got.IntervalsSec, want.IntervalsSec = 0, 0
		got.NsPerDisplay, want.NsPerDisplay = 0, 0
		got.HeapAllocBytes, want.HeapAllocBytes = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pooled point %d diverged:\n  pooled:     %+v\n  sequential: %+v", i, got, want)
		}
	}
}
