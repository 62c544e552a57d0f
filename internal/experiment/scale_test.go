package experiment

import (
	"reflect"
	"testing"

	"github.com/mmsim/staggered/internal/sched"
	"github.com/mmsim/staggered/internal/tertiary"
)

// TestScaleSweep100x pins the acceptance bar for the engine's event
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
// scale ceiling.  The run itself is exercised by the perfbench
// workload scale-zipf, which builds ScaleConfig(1000) with Zipf
// popularity.
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

// TestDerivedConfigsPinned pins every field of the configs derived from
// the quick geometry: ScaleConfig builds the scale trajectory, the
// scale-zipf and cluster perfbench workloads, and e18Config the E18
// farm, so none of their values may move when their construction does.
func TestDerivedConfigsPinned(t *testing.T) {
	quick := func(d, capacity, objects, stations int) sched.Config {
		return sched.Config{
			D:                 d,
			K:                 5,
			CapacityFragments: capacity,
			Objects:           objects,
			Subobjects:        30,
			M:                 5,
			BDisk:             20e6,
			FragmentBytes:     1512000,
			Tertiary:          tertiary.Table3,
			TapeLayout:        tertiary.DiskMatched,
			Stations:          stations,
			DistMean:          20,
			Seed:              1,
			WarmupIntervals:   200,
			MeasureIntervals:  1000,
		}
	}
	e18 := quick(50, 150, 40, 16)
	e18.K = 1
	e18.DistMean = 43.5
	e18.WarmupIntervals, e18.MeasureIntervals = 0, 500
	e18.PreloadTop = 40
	for _, c := range []struct {
		name      string
		got, want sched.Config
	}{
		{"ScaleConfig(1)", ScaleConfig(1, 1), quick(50, 60, 40, 20)},
		{"ScaleConfig(1000)", ScaleConfig(1000, 1), quick(50000, 60000, 40000, 20000)},
		{"e18Config(1, 1)", e18Config(1, 1), e18},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s =\n  %+v\nwant\n  %+v", c.name, c.got, c.want)
		}
	}
}
