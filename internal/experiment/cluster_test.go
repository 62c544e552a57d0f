package experiment

import (
	"testing"
)

// TestE20ClusterScaling runs the full E20 grid and pins the two
// claims the cluster layer exists to demonstrate: aggregate
// displays/hour scales ≥ 3.5x from 1 to 4 servers under leastloaded,
// and under Zipf θ=1.1 the popularity policy beats object-blind
// roundrobin at every multi-server fleet size.
func TestE20ClusterScaling(t *testing.T) {
	points, err := E20(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderE20(points))

	byKey := make(map[string]ClusterPoint, len(points))
	for _, p := range points {
		byKey[key(p.Servers, p.Policy)] = p
		if p.Result.Aggregate.Throughput() <= 0 {
			t.Fatalf("%d×%s delivered no throughput", p.Servers, p.Policy)
		}
	}

	ll4 := byKey[key(4, "leastloaded")]
	if ll4.ScaleVsOne < 3.5 {
		t.Errorf("leastloaded scaled %.2fx from 1 to 4 servers, want ≥ 3.5x", ll4.ScaleVsOne)
	}
	for _, n := range E20Servers[1:] {
		rr, pop := byKey[key(n, "roundrobin")], byKey[key(n, "popularity")]
		if pop.Result.Aggregate.Throughput() <= rr.Result.Aggregate.Throughput() {
			t.Errorf("%d servers: popularity %.1f/hr does not beat roundrobin %.1f/hr",
				n, pop.Result.Aggregate.Throughput(), rr.Result.Aggregate.Throughput())
		}
	}
}

func key(servers int, policy string) string {
	return policy + string(rune('0'+servers))
}
