package experiment

import (
	"fmt"
	"strings"

	"github.com/mmsim/staggered/internal/analytic"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/sched"
)

// E18 — surviving bandwidth under a single disk failure (DESIGN.md
// §10, EXPERIMENTS.md E18).  The availability analysis predicts that
// after one disk fails, the fraction of admission requests that can
// still be served is (D − footprint)/D where footprint is
// analytic.UniqueDisksUsed: an object is unplayable iff the failed
// disk is in its stride orbit, and every object of the single-media
// database has the same orbit size.  The experiment measures the same
// quantity from the simulator: for each stride it fails every disk
// position in turn, runs the degraded farm, and averages the admitted
// fraction 1 − rejected/requests over the D positions.  Averaging
// over all positions makes the comparison exact for ANY popularity
// distribution — the double count Σ_f Σ_obj p(obj)·[f ∈ orbit(obj)]
// collapses to footprint/D because orbit size is start-invariant.

// E18Strides are the compared strides on the E18 geometry (D = 50,
// M = 5): the paper's extremes k = 1 and k = D plus simple striping
// k = M.
func E18Strides() []int { return []int{1, 5, 50} }

// e18Config is the E18 farm: the quick geometry with 2.5× the disk
// capacity (150 cylinders) so the whole catalog preloads — rejections
// then measure availability alone, with no staging traffic mixed in.
func e18Config(k int, seed uint64) sched.Config {
	cfg := BaseConfig(Quick, 16, 43.5, seed)
	cfg.K = k
	cfg.CapacityFragments = 150
	cfg.WarmupIntervals, cfg.MeasureIntervals = 0, 500
	cfg.PreloadTop = cfg.Objects
	return cfg
}

// E18Point is one row of the E18 comparison: simulated vs analytic
// surviving admission fraction for one stride under a single disk
// failure.
type E18Point struct {
	K         int     // stride
	Footprint int     // analytic.UniqueDisksUsed(D, K, M, N)
	Analytic  float64 // analytic.SurvivingBandwidthFraction, 1 failure
	Simulated float64 // mean over failure positions of 1 - rejected/requests
}

// E18 runs the availability experiment: for each stride, one degraded
// run per failed-disk position (the failure hits at interval 0 and is
// never repaired), averaged into a simulated surviving fraction.
// Runs execute on a GOMAXPROCS-sized pool; results are deterministic
// per seed.
func E18(seed uint64) ([]E18Point, error) {
	strides := E18Strides()
	points := make([]E18Point, len(strides))
	base := e18Config(1, seed)
	fractions := make([][]float64, len(strides))
	for i, k := range strides {
		fractions[i] = make([]float64, base.D)
		points[i] = E18Point{
			K:         k,
			Footprint: analytic.UniqueDisksUsed(base.D, k, base.M, base.Subobjects),
			Analytic:  analytic.SurvivingBandwidthFraction(base.D, k, base.M, base.Subobjects, 1),
		}
	}
	// Job i fails disk i mod D under stride i / D.
	err := parallel(len(strides)*base.D, func(i int) error {
		ki, disk := i/base.D, i%base.D
		cfg := e18Config(strides[ki], seed)
		cfg.Faults = fault.NewPlan().FailDisk(disk, 0)
		e, _, err := sched.NewEngineFor(TechStaggered, cfg, cfg.K)
		if err != nil {
			return fmt.Errorf("e18 k=%d disk %d: %w", cfg.K, disk, err)
		}
		res := e.Run()
		if res.Requests > 0 {
			fractions[ki][disk] = 1 - float64(res.RejectedDegraded)/float64(res.Requests)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range points {
		sum := 0.0
		for _, v := range fractions[i] {
			sum += v
		}
		points[i].Simulated = sum / float64(len(fractions[i]))
	}
	return points, nil
}

// E18Render formats the comparison as a text table.
func E18Render(points []E18Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E18: surviving admission fraction after one disk failure (D=50, M=5)\n")
	fmt.Fprintf(&b, "%7s %10s %10s %10s %8s\n", "k", "footprint", "analytic", "simulated", "delta")
	for _, p := range points {
		fmt.Fprintf(&b, "%7d %10d %10.4f %10.4f %8.4f\n",
			p.K, p.Footprint, p.Analytic, p.Simulated, p.Simulated-p.Analytic)
	}
	return b.String()
}
