package experiment

import (
	"fmt"

	"github.com/mmsim/staggered/internal/cluster"
	"github.com/mmsim/staggered/internal/metrics"
)

// E20 measures the cluster layer (DESIGN.md §13): aggregate displays
// per hour as servers scale 1→8 under each dispatch policy, with a
// Zipf θ=1.1 hot head and offered load proportional to the fleet.
// Two claims are on trial: near-linear scaling (each member brings its
// own disks, tertiary, and stations, so leastloaded should deliver
// ~N× the single server) and the policy gap under skew (popularity
// routes every request to a replica holder chosen by Zipf rank at
// build time, so it avoids the materialization storms object-blind
// policies trigger on the cold tail).

// E20Servers is the fleet-size trajectory of the sweep.
var E20Servers = []int{1, 2, 4, 8}

// E20ArrivalsPerServer is the offered load each member adds to the
// cluster-wide Poisson stream: roughly 2× a quick-scale server's
// display ceiling, so every point runs saturated and throughput
// measures capacity, not demand.
const E20ArrivalsPerServer = 4000.0

// E20ZipfTheta is the skew of the shared object draw.
const E20ZipfTheta = 1.1

// ClusterPoint is one E20 measurement: one fleet size under one
// dispatch policy.
type ClusterPoint struct {
	Servers int     `json:"servers"`
	Policy  string  `json:"policy"`
	PerHour float64 `json:"displays_per_hour"`
	// ScaleVsOne is PerHour over the same policy's 1-server PerHour.
	ScaleVsOne float64 `json:"scale_vs_one,omitempty"`
	// Materializations counts tertiary stagings across the fleet in
	// the window — the cost object-blind dispatch pays on the cold
	// tail.
	Materializations int `json:"materializations"`
	// Rejected counts arrivals refused for want of an idle station.
	Rejected int `json:"rejected"`
	// NoHolder counts popularity dispatches that found no holder.
	NoHolder int `json:"no_holder,omitempty"`
}

// E20Config builds the cluster configuration of one E20 point: quick
// per-server geometry, 64 stations per member, and a cluster-wide
// offered load of E20ArrivalsPerServer per member.
func E20Config(servers int, policy string, seed uint64) cluster.Config {
	base := BaseConfig(Quick, 64, 20, seed)
	base.ZipfSkew = E20ZipfTheta
	base.ArrivalsPerHour = E20ArrivalsPerServer * float64(servers)
	return cluster.Config{
		Servers:   servers,
		Technique: "striped",
		Dispatch:  policy,
		Base:      base,
	}
}

// RunE20Point executes one fleet-size × policy measurement.
func RunE20Point(servers int, policy string, seed uint64) (ClusterPoint, error) {
	sim, err := cluster.New(E20Config(servers, policy, seed))
	if err != nil {
		return ClusterPoint{}, fmt.Errorf("e20 %d×%s: %w", servers, policy, err)
	}
	res, err := sim.Run()
	if err != nil {
		return ClusterPoint{}, fmt.Errorf("e20 %d×%s: %w", servers, policy, err)
	}
	return ClusterPoint{
		Servers:          servers,
		Policy:           policy,
		PerHour:          res.Aggregate.Throughput(),
		Materializations: res.Aggregate.Materializa,
		Rejected:         res.Aggregate.OpenRejected,
		NoHolder:         res.NoHolder,
	}, nil
}

// E20 runs the full servers × policy grid.
func E20(seed uint64) ([]ClusterPoint, error) {
	return E20Grid(E20Servers, cluster.Policies(), seed)
}

// E20Grid runs a custom servers × policies grid and fills in each
// point's scaling factor against the same policy's first fleet size.
// Points run concurrently on a GOMAXPROCS pool (the simulations are
// deterministic regardless), returned in (policy, servers) order.
func E20Grid(servers []int, policies []string, seed uint64) ([]ClusterPoint, error) {
	points := make([]ClusterPoint, len(policies)*len(servers))
	err := parallel(len(points), func(i int) error {
		var err error
		points[i], err = RunE20Point(servers[i%len(servers)], policies[i/len(servers)], seed)
		return err
	})
	if err != nil {
		return nil, err
	}

	for i := range points {
		base := points[i-i%len(servers)] // the policy's smallest-fleet point
		if base.PerHour > 0 {
			points[i].ScaleVsOne = points[i].PerHour / base.PerHour
		}
	}
	return points, nil
}

// RenderE20 formats the grid as the EXPERIMENTS.md E20 table.
func RenderE20(points []ClusterPoint) string {
	return "E20: cluster scaling, displays/hour by fleet size and dispatch policy (Zipf θ=1.1)\n" +
		e20Table(points).String()
}

// E20CSV formats the grid as machine-readable CSV.
func E20CSV(points []ClusterPoint) string { return e20Table(points).CSV() }

func e20Table(points []ClusterPoint) *metrics.Table {
	tbl := &metrics.Table{Header: []string{
		"servers", "policy", "displays_per_hour", "scale_vs_one", "materializations", "rejected", "no_holder",
	}}
	for _, p := range points {
		tbl.AddRow(
			fmt.Sprintf("%d", p.Servers),
			p.Policy,
			fmt.Sprintf("%.1f", p.PerHour),
			fmt.Sprintf("%.2fx", p.ScaleVsOne),
			fmt.Sprintf("%d", p.Materializations),
			fmt.Sprintf("%d", p.Rejected),
			fmt.Sprintf("%d", p.NoHolder),
		)
	}
	return tbl
}
