package experiment

import (
	"fmt"
	"math"

	"github.com/mmsim/staggered/internal/metrics"
)

// ReplicatedPoint aggregates one station count across independent
// seeds: the mean and sample standard deviation of both techniques'
// throughput and of the improvement percentage.
type ReplicatedPoint struct {
	Stations       int
	Seeds          int
	StripedPerHour metrics.Tally
	VDRPerHour     metrics.Tally
	ImprovementPct metrics.Tally
}

// RunReplicated runs one Figure 8 graph across several seeds and
// aggregates per station count, giving confidence intervals the
// single-seed paper numbers lack.
func RunReplicated(scale Scale, mean float64, stations []int, seeds []uint64) ([]ReplicatedPoint, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiment: need at least one seed")
	}
	var out []ReplicatedPoint
	for _, seed := range seeds {
		byMean, err := Sweep(scale, []float64{mean}, stations, seed, nil, nil)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = make([]ReplicatedPoint, len(byMean[mean]))
		}
		for i, p := range byMean[mean] {
			out[i].Stations = p.Stations
			out[i].Seeds++
			out[i].StripedPerHour.Add(p.Striped().Throughput())
			out[i].VDRPerHour.Add(p.VDR().Throughput())
			imp := p.Improvement()
			if !math.IsInf(imp, 0) {
				out[i].ImprovementPct.Add(imp)
			}
		}
	}
	return out, nil
}

// RenderReplicated formats the aggregate as a table with mean ± σ and
// the worst seed's improvement.
func RenderReplicated(mean float64, points []ReplicatedPoint) string {
	tbl := &metrics.Table{Header: []string{
		"stations", "striping (mean±σ /hr)", "replication (mean±σ /hr)", "improvement (mean±σ %)", "worst seed (%)",
	}}
	for _, p := range points {
		tbl.AddRow(
			fmt.Sprintf("%d", p.Stations),
			fmt.Sprintf("%.1f±%.1f", p.StripedPerHour.Mean(), p.StripedPerHour.StdDev()),
			fmt.Sprintf("%.1f±%.1f", p.VDRPerHour.Mean(), p.VDRPerHour.StdDev()),
			fmt.Sprintf("%.1f±%.1f", p.ImprovementPct.Mean(), p.ImprovementPct.StdDev()),
			fmt.Sprintf("%.1f", p.ImprovementPct.Min()),
		)
	}
	return fmt.Sprintf("Figure 8 replicated over %d seeds (geometric mean %v)\n%s",
		points[0].Seeds, mean, tbl.String())
}
