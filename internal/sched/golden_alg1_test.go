package sched

import (
	"flag"
	"fmt"
	"strings"
	"testing"
)

// Golden pin for Algorithm 1 admission at strides and startup bounds
// the staggered dump does not reach: a stride sharing a factor with D
// (k=4, gcd 2: half the farm can never serve a given fragment), a
// stride whose orbit is shorter than the default startup bound (k=10,
// orbit D/gcd = 5 < 2·M = 10), and k=1 with the startup bound pinched
// to one interval and opened past the whole orbit.  Eviction pressure
// keeps the exact-fit quick farm from starving at k < M, so every run
// admits displays.  Regenerate with:
//
//	go test ./internal/sched -run TestGoldenAlgorithm1 -update-golden-alg1

var updateGoldenAlg1 = flag.Bool("update-golden-alg1", false,
	"rewrite testdata/golden_alg1.txt from the current engine")

type alg1GoldenConfig struct {
	name   string
	cfg    Config
	stride int
}

func alg1GoldenConfigs() []alg1GoldenConfig {
	var out []alg1GoldenConfig
	for _, c := range []struct{ k, maxStartup int }{{4, 0}, {10, 0}, {1, 1}, {1, 100}} {
		for _, st := range []int{8, 32, 64} {
			cfg := smallConfig(st, 20)
			cfg.MaxStartup = c.maxStartup
			cfg.EvictionPressure = true
			out = append(out, alg1GoldenConfig{
				fmt.Sprintf("alg1-k%d-maxstartup%d-st%d", c.k, c.maxStartup, st), cfg, c.k,
			})
		}
	}
	return out
}

func TestGoldenAlgorithm1(t *testing.T) {
	if testing.Short() {
		t.Skip("Algorithm 1 golden sweep is not short")
	}
	var b strings.Builder
	fragmented := 0
	for _, gc := range alg1GoldenConfigs() {
		e, _, err := NewEngineFor("staggered", gc.cfg, gc.stride)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		r := e.Run()
		if r.Displays == 0 {
			t.Fatalf("%s: no displays, the run pins nothing", gc.name)
		}
		fragmented += r.Coalescings
		fmt.Fprintf(&b, "%s: %+v\n", gc.name, legacyView(r))
	}
	// A pin that never admits a fragmented display pins nothing about
	// Algorithm 1.
	if fragmented == 0 {
		t.Fatal("no run coalesced a stream: the pin does not exercise Algorithm 1")
	}
	checkGoldenDump(t, "golden_alg1.txt", b.String(), *updateGoldenAlg1, "update-golden-alg1")
}
