package sched

import (
	"math"
	"testing"

	"github.com/mmsim/staggered/internal/tertiary"
)

// smallConfig is a scaled-down Table 3: 50 disks in 10 clusters of 5,
// 40 objects of 30 subobjects, 20 of which fit on disk.
func smallConfig(stations int, mean float64) Config {
	return Config{
		D:                 50,
		K:                 5,
		CapacityFragments: 60,
		Objects:           40,
		Subobjects:        30,
		M:                 5,
		BDisk:             20e6,
		FragmentBytes:     1512000,
		Tertiary:          tertiary.Table3,
		TapeLayout:        tertiary.DiskMatched,
		Stations:          stations,
		DistMean:          mean,
		Seed:              1,
		WarmupIntervals:   600,
		MeasureIntervals:  3000,
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig(4, 10)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.D = 0 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.K = c.D + 1 },
		func(c *Config) { c.M = 0 },
		func(c *Config) { c.CapacityFragments = 0 },
		func(c *Config) { c.Objects = 0 },
		func(c *Config) { c.Subobjects = 0 },
		func(c *Config) { c.BDisk = 0 },
		func(c *Config) { c.FragmentBytes = 0 },
		func(c *Config) { c.Stations = 0 },
		func(c *Config) { c.DistMean = 1 },
		func(c *Config) { c.MeasureIntervals = 0 },
		func(c *Config) { c.WarmupIntervals = -1 },
		func(c *Config) { c.MaxStartup = -1 },
		func(c *Config) { c.Tertiary.Bandwidth = 0 },
		func(c *Config) { c.BDisk = math.NaN() },
		func(c *Config) { c.BDisk = math.Inf(1) },
		func(c *Config) { c.FragmentBytes = math.NaN() },
		func(c *Config) { c.FragmentBytes = math.Inf(1) },
		func(c *Config) { c.DistMean = math.NaN() },
		func(c *Config) { c.DistMean = math.Inf(1) },
		func(c *Config) { c.ZipfSkew = math.NaN() },
		func(c *Config) { c.ZipfSkew = math.Inf(1) },
		func(c *Config) { c.ArrivalsPerHour = math.NaN() },
		func(c *Config) { c.ArrivalsPerHour = math.Inf(1) },
		func(c *Config) { c.Tertiary.Bandwidth = math.NaN() },
		func(c *Config) { c.Tertiary.Reposition = math.Inf(1) },
	}
	for i, mutate := range bad {
		c := smallConfig(4, 10)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestTable3ConfigNumbers checks the derived quantities of the paper
// configuration: 0.6048 s intervals, 1814 s displays, 4536 s
// materializations, and a 200-object farm.
func TestTable3ConfigNumbers(t *testing.T) {
	c := Table3Config(16, 20, 1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if iv := c.IntervalSeconds(); math.Abs(iv-0.6048) > 1e-9 {
		t.Errorf("interval = %v, want 0.6048", iv)
	}
	if c.DisplayIntervals() != 3000 {
		t.Errorf("display intervals = %d, want 3000", c.DisplayIntervals())
	}
	if got := float64(c.DisplayIntervals()) * c.IntervalSeconds(); math.Abs(got-1814.4) > 0.01 {
		t.Errorf("display time = %v s, want 1814.4", got)
	}
	if got := c.MaterializeIntervals(); math.Abs(float64(got)*c.IntervalSeconds()-4536) > 1 {
		t.Errorf("materialization = %v s, want ~4536", float64(got)*c.IntervalSeconds())
	}
	if got := c.DefaultPreload(); got != 200 {
		t.Errorf("farm capacity = %d objects, want 200", got)
	}
}

func TestStripedSingleStation(t *testing.T) {
	cfg := smallConfig(1, 5)
	e, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if res.Hiccups != 0 {
		t.Fatalf("hiccups = %d, want 0", res.Hiccups)
	}
	// One station cycling hot 30-interval displays with near-zero
	// admission latency completes ~MeasureIntervals/30 displays.
	want := float64(cfg.MeasureIntervals) / float64(cfg.Subobjects)
	if float64(res.Displays) < 0.7*want || float64(res.Displays) > 1.05*want {
		t.Fatalf("displays = %d, want ~%v", res.Displays, want)
	}
	if res.Latency.Mean() < 0 {
		t.Fatal("negative latency")
	}
	if res.Technique != "simple striping" {
		t.Fatalf("technique = %q", res.Technique)
	}
}

func TestStripedDeterminism(t *testing.T) {
	run := func() Result {
		e, err := NewEngine(smallConfig(8, 10), &stripedTech{})
		if err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}
	a, b := run(), run()
	if a.Displays != b.Displays || a.Materializa != b.Materializa ||
		a.Latency.Mean() != b.Latency.Mean() || a.DiskBusy != b.DiskBusy {
		t.Fatalf("replays diverged: %+v vs %+v", a, b)
	}
}

func TestVDRDeterminism(t *testing.T) {
	run := func() Result {
		e, err := NewEngine(smallConfig(8, 10), &vdrTech{})
		if err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}
	a, b := run(), run()
	if a.Displays != b.Displays || a.Replications != b.Replications ||
		a.Latency.Mean() != b.Latency.Mean() {
		t.Fatalf("replays diverged: %+v vs %+v", a, b)
	}
}

func TestStripedCapacityBound(t *testing.T) {
	// Throughput can never exceed the farm's structural limit:
	// (D/M) concurrent displays of Subobjects intervals each.
	cfg := smallConfig(64, 10)
	e, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if res.Hiccups != 0 {
		t.Fatalf("hiccups = %d", res.Hiccups)
	}
	maxDisplays := float64(cfg.D/cfg.M) * float64(cfg.MeasureIntervals) / float64(cfg.Subobjects)
	if float64(res.Displays) > maxDisplays*1.01 {
		t.Fatalf("displays = %d exceeds structural bound %v", res.Displays, maxDisplays)
	}
	if res.DiskBusy < 0 || res.DiskBusy > 1 {
		t.Fatalf("disk busy fraction = %v", res.DiskBusy)
	}
}

func TestVDRCapacityBound(t *testing.T) {
	cfg := smallConfig(64, 10)
	e, err := NewEngine(cfg, &vdrTech{})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if res.Hiccups != 0 {
		t.Fatalf("hiccups = %d", res.Hiccups)
	}
	maxDisplays := float64(cfg.D/cfg.M) * float64(cfg.MeasureIntervals) / float64(cfg.Subobjects)
	if float64(res.Displays) > maxDisplays*1.01 {
		t.Fatalf("displays = %d exceeds structural bound %v", res.Displays, maxDisplays)
	}
}

// TestStripedBeatsVDRUnderLoad is the paper's central claim (§4.2) at
// test scale: under high load with a skewed distribution, simple
// striping outperforms virtual data replication.
func TestStripedBeatsVDRUnderLoad(t *testing.T) {
	cfg := smallConfig(32, 5)
	st, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	vd, err := NewEngine(cfg, &vdrTech{})
	if err != nil {
		t.Fatal(err)
	}
	rs, rv := st.Run(), vd.Run()
	if rs.Hiccups != 0 || rv.Hiccups != 0 {
		t.Fatalf("hiccups: striped %d, vdr %d", rs.Hiccups, rv.Hiccups)
	}
	if rs.Displays <= rv.Displays {
		t.Fatalf("striping (%d displays) did not beat VDR (%d displays)", rs.Displays, rv.Displays)
	}
}

// TestLowLoadParity reproduces §4.2: "For a low number of display
// stations (one or two), both techniques provide approximately the
// same throughput."
func TestLowLoadParity(t *testing.T) {
	cfg := smallConfig(1, 5)
	st, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	vd, err := NewEngine(cfg, &vdrTech{})
	if err != nil {
		t.Fatal(err)
	}
	rs, rv := st.Run(), vd.Run()
	ratio := rs.Throughput() / rv.Throughput()
	if ratio < 0.85 || ratio > 1.2 {
		t.Fatalf("single-station throughput ratio = %v, want ~1 (striped %v, vdr %v)",
			ratio, rs.Throughput(), rv.Throughput())
	}
}

func TestStripedThroughputScalesWithLoad(t *testing.T) {
	prev := -1.0
	for _, n := range []int{1, 4, 8} {
		e, err := NewEngine(smallConfig(n, 5), &stripedTech{})
		if err != nil {
			t.Fatal(err)
		}
		res := e.Run()
		tp := res.Throughput()
		if tp < prev*0.95 {
			t.Fatalf("throughput fell from %v to %v when stations grew to %d", prev, tp, n)
		}
		prev = tp
	}
}

func TestVDRReplicatesHotObjects(t *testing.T) {
	// Extremely skewed load on many stations forces replication.
	cfg := smallConfig(32, 2.000001)
	e, err := NewEngine(cfg, &vdrTech{})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if res.Replications == 0 {
		t.Fatal("no replications under extreme skew")
	}
	// Replication reduces the number of unique resident objects below
	// the farm's object capacity — the §4.2 observation.
	if res.UniqueResidents >= cfg.DefaultPreload() {
		t.Fatalf("unique residents = %d, want < %d after replication",
			res.UniqueResidents, cfg.DefaultPreload())
	}
}

func TestStripedMaterializesMisses(t *testing.T) {
	// A near-uniform distribution over 40 objects with only 20 disk
	// slots must trigger materializations.
	cfg := smallConfig(8, 40)
	cfg.MeasureIntervals = 6000
	e, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if res.Materializa == 0 {
		t.Fatal("no materializations despite cold objects")
	}
	if res.TertiaryBusy <= 0 || res.TertiaryBusy > 1 {
		t.Fatalf("tertiary busy = %v", res.TertiaryBusy)
	}
}

func TestStripedRunTwicePanics(t *testing.T) {
	e, err := NewEngine(smallConfig(1, 5), &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	e.Run()
}

func TestVDRRejectsBadGeometry(t *testing.T) {
	cfg := smallConfig(4, 10)
	cfg.D = 52 // not divisible by M=5
	if _, err := NewEngine(cfg, &vdrTech{}); err == nil {
		t.Fatal("non-divisible geometry accepted")
	}
}

// TestVDRRejectsMixedDegrees pins that VDR, which lays every object
// out over one M-disk cluster, refuses per-object degrees instead of
// silently running them at M.
func TestVDRRejectsMixedDegrees(t *testing.T) {
	cfg := smallConfig(4, 10)
	cfg.Degrees = make([]int, cfg.Objects)
	for i := range cfg.Degrees {
		cfg.Degrees[i] = 1 + i%cfg.M
	}
	if _, err := NewEngine(cfg, &vdrTech{}); err == nil {
		t.Fatal("VDR accepted per-object degrees")
	}
	ti, _ := TechniqueByKey("vdr")
	if _, err := newMember(ti, cfg, nil); err == nil {
		t.Fatal("VDR member accepted per-object degrees")
	}
	for _, key := range []string{"striped", "staggered"} {
		if _, _, err := NewEngineFor(key, cfg, 0); err != nil {
			t.Errorf("%s rejected per-object degrees: %v", key, err)
		}
	}
}

// TestStaggeredStride1 runs the engine with k=1 and fragmented
// admission — the general staggered configuration of §3.2.
func TestStaggeredStride1(t *testing.T) {
	cfg := smallConfig(16, 10)
	cfg.K = 1
	e, err := NewEngine(cfg, &stripedTech{staggered: true})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if res.Hiccups != 0 {
		t.Fatalf("hiccups = %d, want 0", res.Hiccups)
	}
	if res.Displays == 0 {
		t.Fatal("no displays completed under staggered striping")
	}
	if res.Technique != "staggered striping (k=1)" {
		t.Fatalf("technique = %q", res.Technique)
	}
}

func BenchmarkStripedInterval(b *testing.B) {
	cfg := smallConfig(32, 10)
	cfg.WarmupIntervals = 0
	cfg.MeasureIntervals = 1
	e, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < cfg.Stations; s++ {
		e.enqueue(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}

func BenchmarkVDRInterval(b *testing.B) {
	cfg := smallConfig(32, 10)
	e, err := NewEngine(cfg, &vdrTech{})
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < cfg.Stations; s++ {
		e.enqueue(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}

// TestSnapshotAllocatesNothing pins that Snapshot formats nothing: the
// staggered technique's stride-qualified name is built once, with the
// engine, so a run's malloc count does not depend on fmt.
func TestSnapshotAllocatesNothing(t *testing.T) {
	e, cfg, err := NewEngineFor("staggered", smallConfig(8, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := StripingTechniqueName(cfg); e.Snapshot().Technique != want || cfg.K != 1 {
		t.Fatalf("technique %q at k=%d, want %q at k=1", e.Snapshot().Technique, cfg.K, want)
	}
	if got := testing.AllocsPerRun(100, func() { e.Snapshot() }); got != 0 {
		t.Errorf("Snapshot allocates %v/op, want 0", got)
	}
}
