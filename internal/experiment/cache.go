package experiment

import (
	"fmt"
	"strings"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/sched"
)

// E19 — displays/hour and startup latency vs cache size (DESIGN.md
// §12, EXPERIMENTS.md E19).  The pure-disk Figure 8 ceiling of the
// quick geometry is D/M = 10 concurrent displays ≈ 1984 displays/hour
// regardless of workload: every display burns M disk streams.  A
// Zipf-skewed open arrival stream concentrates requests on a hot head,
// so a prefix cache plus multicast batching serves most startups from
// RAM and rides followers on in-flight streams — throughput then
// scales with demand, not disk bandwidth.  The sweep crosses cache
// budget × Zipf skew × batch window; the (budget 0, window 0) rows are
// the disk-only baseline the others must beat.

// e19ArrivalsPerHour overdrives the quick geometry's ≈1984/hour disk
// ceiling threefold, so the baseline saturates and the cached runs
// have demand to convert.
const e19ArrivalsPerHour = 6000

// E19Point is one cell of the sweep: its coordinates and the run's
// Result.
type E19Point struct {
	Skew            float64
	BudgetMB        int
	WindowIntervals int
	Result          sched.Result
}

// E19Run executes one cell: the quick geometry driven by an open
// Zipf(skew) Poisson stream, a 1-member cluster, with the memory tier
// sized by budgetMB and window (both 0 = disk-only baseline).
// Starvation during the overdriven warm-up is tolerated — saturation
// is the point here, so the row reports whatever the farm actually
// delivered.
func E19Run(skew float64, budgetMB, window int, seed uint64) (E19Point, error) {
	cfg := BaseConfig(Quick, 256, 20, seed)
	cfg.ZipfSkew = skew
	cfg.ArrivalsPerHour = e19ArrivalsPerHour
	cfg.EvictionPressure = true
	cfg.Cache = &cache.Spec{BudgetBytes: int64(budgetMB) << 20, BatchWindow: window}
	res, err := Run(TechStriped, 0, cfg)
	if err != nil {
		return E19Point{}, fmt.Errorf("e19 skew=%v mb=%d w=%d: %w", skew, budgetMB, window, err)
	}
	return E19Point{Skew: skew, BudgetMB: budgetMB, WindowIntervals: window, Result: res}, nil
}

// E19 runs the full sweep sequentially (24 quick runs; deterministic
// per seed): the classic VoD Zipf skew 0.7 and a sharper 1.1 head ×
// cache budgets of 0 (no prefix cache) to 1024 MB × batch windows of
// 0 (no multicast batching), 8 and 32 intervals.
func E19(seed uint64) ([]E19Point, error) {
	var points []E19Point
	for _, skew := range []float64{0.7, 1.1} {
		for _, mb := range []int{0, 64, 256, 1024} {
			for _, w := range []int{0, 8, 32} {
				p, err := E19Run(skew, mb, w, seed)
				if err != nil {
					return nil, err
				}
				points = append(points, p)
			}
		}
	}
	return points, nil
}

// E19Render formats the sweep as a text table.
func E19Render(points []E19Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E19: displays/hour and startup latency vs cache size (quick geometry, %d arrivals/hour, disk ceiling ~1984/hour)\n",
		e19ArrivalsPerHour)
	fmt.Fprintf(&b, "%6s %9s %7s %12s %10s %8s %10s %10s %9s\n",
		"skew", "cache_mb", "window", "per_hour", "startup_s", "hitrate", "followers", "cache_gb", "rejected")
	for _, p := range points {
		r := p.Result
		fmt.Fprintf(&b, "%6.1f %9d %7d %12.1f %10.3f %8.3f %10d %10.2f %9d\n",
			p.Skew, p.BudgetMB, p.WindowIntervals, r.Throughput(),
			r.Latency.Mean(), r.CacheHitRate(), r.BatchedFollowers,
			float64(r.CacheHitBytes)/(1<<30), r.OpenRejected)
	}
	return b.String()
}
