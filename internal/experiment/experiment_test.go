package experiment

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/cluster"
	"github.com/mmsim/staggered/internal/sched"
	"github.com/mmsim/staggered/internal/tertiary"
	"github.com/mmsim/staggered/internal/workload"
)

func TestBaseConfigScales(t *testing.T) {
	full := BaseConfig(Full, 64, 20, 1)
	if full.D != 1000 || full.Objects != 2000 {
		t.Fatalf("full scale config wrong: %+v", full)
	}
	quick := BaseConfig(Quick, 64, 20, 1)
	if quick.D != 50 || quick.Objects != 40 {
		t.Fatalf("quick scale config wrong: %+v", quick)
	}
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := quick.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFigure8Quick(t *testing.T) {
	byMean, err := Sweep(Quick, []float64{10}, []int{1, 8, 32}, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := byMean[10]
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Striped().Hiccups != 0 || p.VDR().Hiccups != 0 {
			t.Fatalf("hiccups at %d stations", p.Stations)
		}
		if p.Striped().Throughput() <= 0 {
			t.Fatalf("no striped throughput at %d stations", p.Stations)
		}
	}
	// The paper's central result at high load.
	last := pts[len(pts)-1]
	if last.Striped().Throughput() <= last.VDR().Throughput() {
		t.Fatalf("striping (%v) did not beat VDR (%v) at 32 stations",
			last.Striped().Throughput(), last.VDR().Throughput())
	}
	// Throughput grows with offered load.
	if pts[1].Striped().Throughput() < pts[0].Striped().Throughput() {
		t.Fatal("striped throughput fell from 1 to 8 stations")
	}
}

func TestFigure8Deterministic(t *testing.T) {
	a, err := Sweep(Quick, []float64{20}, []int{8}, 7, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(Quick, []float64{20}, []int{8}, 7, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a[20][0].Striped().Displays != b[20][0].Striped().Displays || a[20][0].VDR().Displays != b[20][0].VDR().Displays {
		t.Fatal("figure 8 runs not reproducible")
	}
}

// TestParallelLowestError pins the pool's error contract: every index
// runs exactly once, and the error returned is the lowest failing
// index's, whichever worker reports first.
func TestParallelLowestError(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const n = 64
	var ran [n]atomic.Int32
	err := parallel(n, func(i int) error {
		ran[i].Add(1)
		if i%10 == 7 {
			return fmt.Errorf("job %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "job 7" {
		t.Fatalf("parallel returned %v, want the error of job 7", err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("job %d ran %d times", i, got)
		}
	}
	if err := parallel(0, func(int) error { return fmt.Errorf("ran") }); err != nil {
		t.Fatalf("an empty pool returned %v", err)
	}
}

// TestRunAllParallelismInvariant pins the worker pool's determinism
// contract: the sweep's results must not depend on how many workers
// execute it.  A serial run (GOMAXPROCS=1) and a parallel run must be
// deeply equal, every field of every point.
func TestRunAllParallelismInvariant(t *testing.T) {
	stations := []int{1, 8}
	prev := runtime.GOMAXPROCS(1)
	serial, err := Sweep(Quick, workload.PaperMeans, stations, 9, nil, nil)
	runtime.GOMAXPROCS(4)
	if err != nil {
		runtime.GOMAXPROCS(prev)
		t.Fatal(err)
	}
	parallel, perr := Sweep(Quick, workload.PaperMeans, stations, 9, nil, nil)
	runtime.GOMAXPROCS(prev)
	if perr != nil {
		t.Fatal(perr)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("sweep depends on worker count:\n  serial:   %+v\n  parallel: %+v", serial, parallel)
	}
}

func TestFigure8RenderAndTable4(t *testing.T) {
	byMean, err := Sweep(Quick, workload.PaperMeans, []int{16, 64}, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fig := Figure8Render(10, byMean[10])
	for _, want := range []string{"Figure 8", "highly skewed", "simple striping", "virtual replication"} {
		if !strings.Contains(fig, want) {
			t.Errorf("figure missing %q:\n%s", want, fig)
		}
	}
	tbl := Table4(byMean).String()
	for _, want := range []string{"# Display Stations", "10 (highly skewed)", "43.5 (uniform)", "16", "64", "%"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table 4 missing %q:\n%s", want, tbl)
		}
	}
	// Station counts not run render as "-".
	if !strings.Contains(tbl, "-") {
		t.Errorf("missing rows not dashed:\n%s", tbl)
	}
}

func TestStrideAblation(t *testing.T) {
	rows, err := StrideAblation(Quick, 16, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var k1, kD StrideResult
	for _, r := range rows {
		switch r.Stride {
		case 1:
			k1 = r
		case 50:
			kD = r
		}
	}
	// §3.2.2: pinning objects to one cluster (k=D) makes colliding
	// requests wait far longer than the rotating layouts.
	if kD.WorstWaitS <= k1.WorstWaitS {
		t.Errorf("k=D worst wait (%v s) not above k=1 (%v s)", kD.WorstWaitS, k1.WorstWaitS)
	}
	for _, r := range rows {
		if r.Run.Hiccups != 0 {
			t.Errorf("%s: hiccups %d", r.Label, r.Run.Hiccups)
		}
	}
}

func TestFragmentAblation(t *testing.T) {
	rows, err := FragmentAblation(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[3].EffectiveBandwidth <= rows[0].EffectiveBandwidth {
		t.Fatal("bandwidth not improving with fragment size")
	}
	if rows[3].WorstLatencySecs <= rows[0].WorstLatencySecs {
		t.Fatal("latency not growing with fragment size")
	}
}

func TestMixedMediaAblation(t *testing.T) {
	rows, err := MixedMediaAblation(24, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	st, naive := rows[0].Run, rows[1].Run
	if st.Hiccups != 0 || naive.Hiccups != 0 {
		t.Fatalf("hiccups: %d / %d", st.Hiccups, naive.Hiccups)
	}
	// §3.1: sizing clusters for the largest media type sacrifices the
	// bandwidth of unused disks; staggered striping must deliver more
	// displays from the same farm.
	if st.Displays <= naive.Displays {
		t.Fatalf("staggered (%d displays) did not beat naive clustering (%d)",
			st.Displays, naive.Displays)
	}
}

func TestTertiaryLayoutAblation(t *testing.T) {
	rows, err := TertiaryLayoutAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	matched, seq := rows[0], rows[1]
	if matched.Layout != tertiary.DiskMatched || seq.Layout != tertiary.Sequential {
		t.Fatal("row order wrong")
	}
	if seq.MaterializeSeconds <= matched.MaterializeSeconds {
		t.Fatal("sequential tape not slower")
	}
	if seq.WastedTimeFraction < 0.85 {
		t.Fatalf("sequential waste = %v, want repositioning to dominate", seq.WastedTimeFraction)
	}
	if matched.WastedTimeFraction != 0 {
		t.Fatalf("matched tape wasted %v", matched.WastedTimeFraction)
	}
	// The layout choice is visible in end-to-end throughput on a
	// miss-heavy workload.
	if matched.ThroughputDisplays <= seq.ThroughputDisplays {
		t.Fatalf("matched layout (%v/hr) not above sequential (%v/hr)",
			matched.ThroughputDisplays, seq.ThroughputDisplays)
	}
}

// TestSweepOpenPointIsOneMemberCluster pins that an open sweep point
// (ArrivalsPerHour > 0) is exactly the Aggregate of a 1-member cluster
// on the same configuration, for a technique at its default stride and
// one at an explicit stride: the sweep draws no arrivals of its own.
func TestSweepOpenPointIsOneMemberCluster(t *testing.T) {
	edit := func(cfg *sched.Config) {
		cfg.ZipfSkew = 0.7
		cfg.ArrivalsPerHour = 6000
		cfg.EvictionPressure = true // room to stage at k < M on the exact-fit farm
		cfg.Cache = &cache.Spec{BudgetBytes: 256 << 20, BatchWindow: 8}
	}
	specs := []TechSpec{{Key: TechStriped}, {Key: TechStaggered, Stride: 2}}
	byMean, err := Sweep(Quick, []float64{20}, []int{32}, 3, specs, edit)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		cfg := BaseConfig(Quick, 32, 20, 3)
		edit(&cfg)
		sim, err := cluster.New(cluster.Config{Servers: 1, Technique: spec.Key, Stride: spec.Stride, Base: cfg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := byMean[20][0].Runs[i]
		if !reflect.DeepEqual(got, res.Aggregate) {
			t.Errorf("%s: sweep point %+v, 1-member cluster %+v", spec.Label(), got, res.Aggregate)
		}
		if got.Requests == 0 || got.BatchedFollowers == 0 {
			t.Errorf("%s: open point served nothing through the tier: %+v", spec.Label(), got)
		}
	}
}
