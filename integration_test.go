package mmis

// End-to-end integration tests: each one drives several subsystems
// through the public facade the way the examples and CLIs do.

import (
	"math"
	"strings"
	"testing"

	"github.com/mmsim/staggered/internal/experiment"
	"github.com/mmsim/staggered/internal/workload"
)

// TestIntegrationPaperPipeline runs the whole evaluation pipeline at
// quick scale — three distributions, the figure renderings, and
// Table 4 — and checks the paper's qualitative claims end to end.
func TestIntegrationPaperPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale sweep still runs dozens of simulations")
	}
	byMean, err := experiment.Sweep(experiment.Quick, workload.PaperMeans, []int{1, 16, 32}, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(byMean) != 3 {
		t.Fatalf("distributions = %d", len(byMean))
	}
	for mean, pts := range byMean {
		fig := experiment.Figure8Render(mean, pts)
		if !strings.Contains(fig, "simple striping") {
			t.Errorf("figure for mean %v malformed", mean)
		}
		for _, p := range pts {
			if p.Striped().Hiccups != 0 || p.VDR().Hiccups != 0 {
				t.Errorf("mean %v stations %d: hiccups", mean, p.Stations)
			}
		}
		// High-load point: striping wins in every distribution.
		last := pts[len(pts)-1]
		if last.Striped().Throughput() <= last.VDR().Throughput() {
			t.Errorf("mean %v: striping lost at %d stations", mean, last.Stations)
		}
	}
	tbl := experiment.Table4(byMean).String()
	if !strings.Contains(tbl, "# Display Stations") {
		t.Fatalf("table 4 malformed:\n%s", tbl)
	}
}

// TestIntegrationLayoutToSimulation checks that the static layout
// arithmetic and the simulator agree: the simulator's structural
// throughput limit is exactly what the layout's cluster count
// predicts.
func TestIntegrationLayoutToSimulation(t *testing.T) {
	cfg := Table3Config(64, 5, 1)
	cfg.D, cfg.K, cfg.M = 50, 5, 5
	cfg.CapacityFragments, cfg.Objects, cfg.Subobjects = 60, 40, 30
	cfg.WarmupIntervals, cfg.MeasureIntervals = 600, 3000

	layout, err := NewLayout(cfg.D, cfg.M)
	if err != nil {
		t.Fatal(err)
	}
	clusters := layout.Clusters(cfg.M)

	eng, err := NewSimulation(cfg, "striped")
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	structural := float64(clusters) * float64(cfg.MeasureIntervals) / float64(cfg.Subobjects)
	if float64(res.Displays) > structural+0.5 {
		t.Fatalf("simulator exceeded the layout's structural limit: %d > %v", res.Displays, structural)
	}
	// Under heavy skewed load the farm should be nearly saturated.
	if float64(res.Displays) < 0.85*structural {
		t.Fatalf("simulator far below structural limit: %d of %v", res.Displays, structural)
	}
}

// TestIntegrationStoreAndPlayback builds a store, places a movie and
// its FF replica through the same allocator, and plays it back.
func TestIntegrationStoreAndPlayback(t *testing.T) {
	layout, err := NewLayout(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(layout, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	movie, err := store.Place(0, 4, 320)
	if err != nil {
		t.Fatal(err)
	}
	repLen, err := FFReplicaSubobjects(320, DefaultScanRatio)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := store.Place(1, 4, repLen)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewPlaybackSession(movie, replica, DefaultScanRatio)
	if err != nil {
		t.Fatal(err)
	}
	free := func(int) bool { return true }
	// Watch a bit, scan, resume, finish.
	for i := 0; i < 40; i++ {
		if _, err := sess.Tick(free); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.StartScan(free); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := sess.Tick(free); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.StopScan(free); err != nil {
		t.Fatal(err)
	}
	for sess.Mode() != PlaybackDone {
		if _, err := sess.Tick(free); err != nil {
			t.Fatal(err)
		}
	}
	if sess.Played() == 0 || sess.Scanned() == 0 {
		t.Fatalf("playback mix wrong: played %d scanned %d", sess.Played(), sess.Scanned())
	}
}

// TestIntegrationAnalyticMatchesSimulation cross-checks the §3.1
// closed form against the simulator's derived interval: the effective
// bandwidth at one-cylinder fragments must equal the configured
// B_Disk within rounding (that is how Table 3 was calibrated).
func TestIntegrationAnalyticMatchesSimulation(t *testing.T) {
	cfg := Table3Config(1, 20, 1)
	eff := EffectiveDiskBandwidth(SimulationDisk, cfg.FragmentBytes)
	if math.Abs(eff-cfg.BDisk)/cfg.BDisk > 0.01 {
		t.Fatalf("analytic effective bandwidth %v != configured B_Disk %v", eff, cfg.BDisk)
	}
	// The display time derived from the config matches the §4.1 text.
	display := float64(cfg.Subobjects) * cfg.IntervalSeconds()
	if math.Abs(display-1814.4) > 0.1 {
		t.Fatalf("display time %v, want 1814.4 s", display)
	}
}
