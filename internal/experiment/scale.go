package experiment

import (
	"fmt"
	"runtime"
	"time"

	"github.com/mmsim/staggered/internal/sched"
	"github.com/mmsim/staggered/internal/tertiary"
)

// Scale-mode sweeps push the harness toward the ROADMAP north star —
// configurations 10x–1000x the paper's Table 3 — to measure how
// simulation cost grows with model size now that the engines, the
// event calendar, and the per-interval station/admission work are all
// O(work).

// ScaleConfig returns a configuration factor times the quick
// geometry: factor×50 disks and factor×40 objects with a station
// population of two stations per cluster, which keeps the farm near
// saturation so the calendar carries realistic traffic.  The quick
// base (rather than Table 3) keeps 100x runnable in CI under the race
// detector; offline sweeps pass Table 3 sizes through ScalePoint
// instead.  At factor 1000 this is 50,000 disks and 20,000 stations.
func ScaleConfig(factor int, seed uint64) sched.Config {
	cfg := sched.Config{
		D:                 50 * factor,
		K:                 5,
		CapacityFragments: 60 * factor,
		Objects:           40 * factor,
		Subobjects:        30,
		M:                 5,
		BDisk:             20e6,
		FragmentBytes:     1512000,
		Tertiary:          tertiary.Table3,
		TapeLayout:        tertiary.DiskMatched,
		Stations:          2 * (50 * factor) / 5,
		DistMean:          20,
		Seed:              seed,
		WarmupIntervals:   200,
		MeasureIntervals:  1000,
	}
	return cfg
}

// ScalePoint is one scale-sweep measurement: how much wall-clock one
// engine run costs at a given model size.
type ScalePoint struct {
	Factor       int     `json:"factor"`
	D            int     `json:"disks"`
	Stations     int     `json:"stations"`
	Displays     int     `json:"displays"`
	WallSeconds  float64 `json:"wall_seconds"`
	Intervals    int     `json:"intervals"`
	IntervalsSec float64 `json:"intervals_per_second"`
	// NsPerDisplay is wall-clock nanoseconds divided by displays
	// completed — the cost-per-unit-of-simulated-work trajectory
	// BENCH_5.json tracks across factors.
	NsPerDisplay float64 `json:"ns_per_display,omitempty"`
	// HeapAllocBytes is the live heap right after the run — the
	// Store/placement-table footprint that dominates at 1000x
	// (ROADMAP item 5), measured before it can be compacted away.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes,omitempty"`
}

// RunScalePoint executes one striped run at the given factor and
// times it.
func RunScalePoint(factor int, seed uint64) (ScalePoint, error) {
	cfg := ScaleConfig(factor, seed)
	e, _, err := sched.NewEngineFor(TechStriped, cfg, 0)
	if err != nil {
		return ScalePoint{}, fmt.Errorf("scale %dx: %w", factor, err)
	}
	start := time.Now()
	res := e.Run()
	wall := time.Since(start).Seconds()
	// Collect before sampling, and only after the wall clock is taken:
	// without the forced GC, HeapAlloc includes whatever garbage the GC
	// happened not to have swept yet, so the number would measure
	// collector timing instead of the engine's live tables.  The
	// KeepAlive below stops that same GC from also collecting the
	// engine — dead after Run — which would zero the very footprint
	// being measured.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	defer runtime.KeepAlive(e)
	intervals := cfg.WarmupIntervals + cfg.MeasureIntervals
	p := ScalePoint{
		Factor:      factor,
		D:           cfg.D,
		Stations:    cfg.Stations,
		Displays:    res.Displays,
		WallSeconds: wall,
		Intervals:   intervals,

		HeapAllocBytes: ms.HeapAlloc,
	}
	if wall > 0 {
		p.IntervalsSec = float64(intervals) / wall
	}
	if res.Displays > 0 {
		p.NsPerDisplay = wall * 1e9 / float64(res.Displays)
	}
	return p, nil
}

// ScaleSweep runs the trajectory of factors and returns one point per
// factor, in factor order.  Points execute concurrently on a
// GOMAXPROCS-sized pool (the same harness runSweep uses): simulation
// results are deterministic regardless, and the per-point wall clocks
// remain comparable because every point still runs on one goroutine.
func ScaleSweep(factors []int, seed uint64) ([]ScalePoint, error) {
	points := make([]ScalePoint, len(factors))
	err := parallel(len(points), func(i int) error {
		var err error
		points[i], err = RunScalePoint(factors[i], seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}
