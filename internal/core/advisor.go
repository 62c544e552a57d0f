package core

import (
	"fmt"

	"github.com/mmsim/staggered/internal/analytic"
	"github.com/mmsim/staggered/internal/diskmodel"
)

// Advice is a recommended farm configuration with the reasoning the
// paper gives for it.
type Advice struct {
	Stride    int
	Rationale string
}

// RecommendStride encodes §3.2's configuration guidance: for a single
// media type whose degree divides the farm, simple striping (k = M)
// gives the shortest collision waits; for a mix of media types, or
// when D is not a multiple of M, stride 1 is the universal choice —
// it is skew-free for every D (§3.2.2) and lets objects of any degree
// pack without cluster-boundary waste.  k = D (virtual replication)
// is never recommended: its <10% bandwidth saving is dominated by
// display-time-long collision waits (§3.2.2, §4).
func RecommendStride(d int, degrees []int) (Advice, error) {
	if d <= 0 {
		return Advice{}, fmt.Errorf("core: need at least one disk")
	}
	if len(degrees) == 0 {
		return Advice{}, fmt.Errorf("core: need at least one media degree")
	}
	uniform := true
	m := degrees[0]
	for _, deg := range degrees {
		if deg < 1 || deg > d {
			return Advice{}, fmt.Errorf("core: degree %d out of range [1, %d]", deg, d)
		}
		if deg != m {
			uniform = false
		}
	}
	if uniform && d%m == 0 {
		return Advice{
			Stride: m,
			Rationale: fmt.Sprintf(
				"single media type with M=%d dividing D=%d: simple striping (k=M) aligns admissions to physical clusters and minimizes collision waits", m, d),
		}, nil
	}
	return Advice{
		Stride: 1,
		Rationale: fmt.Sprintf(
			"mixed degrees or D=%d not a multiple of M: stride 1 is skew-free for every farm size and packs any degree mix without cluster-boundary waste", d),
	}, nil
}

// RecommendFragmentCylinders returns the largest fragment size (in
// cylinders) whose worst-case startup latency (R−1)·S(C_i) stays
// within the budget, implementing the §3.1 tradeoff.  At least one
// cylinder is always returned, with ok=false when even that misses
// the budget.
func RecommendFragmentCylinders(spec diskmodel.Spec, clusters int, latencyBudgetSeconds float64) (cylinders int, ok bool) {
	if clusters < 1 {
		panic("core: need at least one cluster")
	}
	if latencyBudgetSeconds <= 0 {
		panic("core: need a positive latency budget")
	}
	best, fits := 1, false
	for c := 1; ; c++ {
		worst := analytic.WorstCaseStartupLatency(spec.ServiceTime(float64(c)*spec.CylinderBytes), clusters)
		if worst > latencyBudgetSeconds {
			break
		}
		best, fits = c, true
		// §3.1: gains beyond two cylinders are marginal; stop probing
		// once the wasted fraction drops below 2%.
		if spec.WastedFraction(float64(c)*spec.CylinderBytes) < 0.02 {
			break
		}
	}
	return best, fits
}
