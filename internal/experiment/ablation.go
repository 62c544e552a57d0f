package experiment

import (
	"fmt"

	"github.com/mmsim/staggered/internal/analytic"
	"github.com/mmsim/staggered/internal/diskmodel"
	"github.com/mmsim/staggered/internal/metrics"
	"github.com/mmsim/staggered/internal/sched"
	"github.com/mmsim/staggered/internal/tertiary"
)

// StrideResult is one row of the §3.2.2 stride ablation.
type StrideResult struct {
	Label      string
	Stride     int
	Run        metrics.Run
	MeanWaitS  float64
	WorstWaitS float64
}

// StrideAblation contrasts the stride extremes of §3.2.2 on the same
// workload: k=1 (staggered, fragmented admission), k=M (simple
// striping), and k=D behaviour via the VDR engine (an object pinned
// to one cluster).  The paper's claim: k=D saves under 10% of disk
// bandwidth but makes a colliding request wait a full display time
// instead of about one service time.
func StrideAblation(scale Scale, stations int, mean float64, seed uint64) ([]StrideResult, error) {
	cfg := BaseConfig(scale, stations, mean, seed)
	// 20% capacity slack: with k=1 an object's footprint has ramps at
	// both ends, so an exact-fit farm cannot be packed fully and the
	// resulting extra misses would contaminate the wait-time
	// comparison the ablation is after.
	cfg.CapacityFragments += cfg.CapacityFragments / 5

	// Every row is built through the technique registry, so the
	// ablation measures exactly what `sweep -technique X` runs.
	rows := []struct {
		label  string
		key    string
		stride int
		report int // the stride column
	}{
		{"staggered k=1", TechStaggered, 1, 1},
		{fmt.Sprintf("simple k=M=%d", cfg.M), TechStriped, 0, cfg.M},
		{"pinned k=D (VDR)", TechVDR, 0, cfg.D},
	}
	var out []StrideResult
	for _, row := range rows {
		e, _, err := sched.NewEngineFor(row.key, cfg, row.stride)
		if err != nil {
			return nil, err
		}
		r := e.Run()
		out = append(out, StrideResult{
			Label: row.label, Stride: row.report, Run: r,
			MeanWaitS: r.Latency.Mean(), WorstWaitS: r.Latency.Max(),
		})
	}
	return out, nil
}

// FragmentAblation is E15: the §3.1 fragment-size tradeoff on the
// simulation drive, via the closed forms validated against the
// event-level model.
func FragmentAblation(maxCylinders int) ([]analytic.FragmentTradeoff, error) {
	return analytic.FragmentSweep(diskmodel.Simulation45GB, 200, maxCylinders)
}

// MixedMediaResult compares staggered striping against naive maximal
// physical clustering for a mixed-bandwidth database (E16).
type MixedMediaResult struct {
	Label string
	Run   metrics.Run
}

// MixedMediaAblation builds the §3.1/§3.2 mixed database — objects of
// 40, 60, and 80 mbps (M = 2, 3, 4 at 20 mbps disks) — and contrasts
// staggered striping (k=1, per-object degrees, fragmented admission)
// with the naive alternative the paper criticises: clusters sized for
// the largest media type, every display occupying M_max disks.
func MixedMediaAblation(stations int, mean float64, seed uint64) ([]MixedMediaResult, error) {
	base := sched.Config{
		D:                 48,
		K:                 1,
		CapacityFragments: 480,
		Objects:           48,
		Subobjects:        120,
		M:                 4,
		BDisk:             20e6,
		FragmentBytes:     1512000,
		Tertiary:          tertiary.Table3,
		TapeLayout:        tertiary.DiskMatched,
		Stations:          stations,
		DistMean:          mean,
		Seed:              seed,
		WarmupIntervals:   600,
		MeasureIntervals:  3000,
	}
	// A third of the database at each bandwidth.
	degrees := make([]int, base.Objects)
	for i := range degrees {
		degrees[i] = 2 + i%3 // 40, 60, 80 mbps
	}

	staggered := base
	staggered.Degrees = degrees
	es, _, err := sched.NewEngineFor(TechStaggered, staggered, staggered.K)
	if err != nil {
		return nil, err
	}
	rs := es.Run()

	// Naive: every object is treated as the largest media type —
	// clusters of M_max disks, occupying (and storing) M_max
	// fragments per subobject regardless of need.
	naive := base
	naive.K = base.M // physical clusters of M_max
	en, _, err := sched.NewEngineFor(TechStriped, naive, 0)
	if err != nil {
		return nil, err
	}
	rn := en.Run()

	return []MixedMediaResult{
		{Label: "staggered striping (k=1, per-object M)", Run: rs},
		{Label: "physical clusters of M_max=4", Run: rn},
	}, nil
}

// TertiaryLayoutResult compares the §3.2.4 tape layouts.
type TertiaryLayoutResult struct {
	Layout              tertiary.TapeLayout
	MaterializeSeconds  float64
	MaterializeIntvls   int
	EffectiveBandwidth  float64 // bits/second delivered by the device
	WastedTimeFraction  float64 // head repositioning share
	ThroughputDisplays  float64 // displays/hour in a miss-heavy run
	TertiaryUtilization float64
}

// TertiaryLayoutAblation quantifies §3.2.4: a disk-matched tape
// streams at the device bandwidth, a sequential tape spends most of
// its time repositioning; in a miss-heavy workload the layout choice
// shows up directly as system throughput.
func TertiaryLayoutAblation(seed uint64) ([]TertiaryLayoutResult, error) {
	var out []TertiaryLayoutResult
	for _, layout := range []tertiary.TapeLayout{tertiary.DiskMatched, tertiary.Sequential} {
		cfg := BaseConfig(Quick, 8, 40, seed) // near-uniform: misses matter
		cfg.TapeLayout = layout
		cfg.MeasureIntervals = 6000
		secs := cfg.Tertiary.MaterializeSeconds(cfg.ObjectBits(), layout, cfg.IntervalSeconds())
		e, _, err := sched.NewEngineFor(TechStriped, cfg, 0)
		if err != nil {
			return nil, err
		}
		r := e.Run()
		base := cfg.ObjectBits() / cfg.Tertiary.Bandwidth
		out = append(out, TertiaryLayoutResult{
			Layout:              layout,
			MaterializeSeconds:  secs,
			MaterializeIntvls:   cfg.MaterializeIntervals(),
			EffectiveBandwidth:  cfg.ObjectBits() / secs,
			WastedTimeFraction:  (secs - base) / secs,
			ThroughputDisplays:  r.Throughput(),
			TertiaryUtilization: r.TertiaryBusy,
		})
	}
	return out, nil
}
