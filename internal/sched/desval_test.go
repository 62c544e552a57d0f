package sched

import (
	"math"
	"runtime"
	"testing"

	"github.com/mmsim/staggered/internal/fault"
)

// TestDESValidationAgreesWithIntervalEngine is the model cross-check:
// the station-and-scheduler model and the interval engine running the
// striped technique must agree on throughput at every point of the
// cross-check grid cmd/repro prints (three means by five station
// counts).  On the shared interval clock the two models
// order each boundary's events alike, so they agree within 0.3% at 13
// points; the two residuals DESIGN.md names stay under 3%.
func TestDESValidationAgreesWithIntervalEngine(t *testing.T) {
	checkDESAgreement(t, func(cfg Config) (*Engine, error) {
		return NewEngine(cfg, &stripedTech{})
	})
}

// TestDESValidationAgreesWithGenericEngine repeats the model
// cross-check against the registry-built engine: the mechanism/policy
// split must not perturb the agreement with the station-and-scheduler
// model.
func TestDESValidationAgreesWithGenericEngine(t *testing.T) {
	checkDESAgreement(t, func(cfg Config) (*Engine, error) {
		e, _, err := NewEngineFor("striped", cfg, 0)
		return e, err
	})
}

// checkDESAgreement runs the DES model and the engine build returns at
// each point of the cross-check grid and fails on any point where their
// display counts differ by more than 3%.
func checkDESAgreement(t *testing.T, build func(Config) (*Engine, error)) {
	t.Helper()
	for _, mean := range []float64{5, 10, 20} {
		for _, stations := range []int{1, 8, 16, 32, 64} {
			cfg := smallConfig(stations, mean)
			ie, err := build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			engine := ie.Run().Displays
			des, err := RunDESValidation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if diff := math.Abs(float64(des-engine)) / math.Max(1, float64(engine)); diff > 0.03 {
				t.Errorf("stations=%d mean=%v: engine %d displays, DES model %d (%.1f%% apart)",
					stations, mean, engine, des, diff*100)
			}
		}
	}
}

// TestDESValidationRejectsUnsupported pins that the DES model refuses
// every configuration it does not model instead of silently running
// the base Figure 8 one: other workloads, a stride below M (it admits
// contiguously only), eviction pressure, faults and mixed degrees.
func TestDESValidationRejectsUnsupported(t *testing.T) {
	plan, err := fault.Parse("fail:7@900-1500")
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"zipf":       func(c *Config) { c.ZipfSkew = 1.1 },
		"open":       func(c *Config) { c.ArrivalsPerHour = 3000 },
		"cache":      func(c *Config) { c.Cache = cacheSpec() },
		"zipf flip":  func(c *Config) { c.ZipfFlipInterval = 100 },
		"no station": func(c *Config) { c.Stations = 0 },
		"stride":     func(c *Config) { c.K = 1 },
		"pressure":   func(c *Config) { c.EvictionPressure = true },
		"faults":     func(c *Config) { c.Faults = plan },
		"degrees": func(c *Config) {
			c.Degrees = make([]int, c.Objects)
			for i := range c.Degrees {
				c.Degrees[i] = 1 + i%c.M
			}
		},
	} {
		cfg := smallConfig(8, 10)
		mutate(&cfg)
		if _, err := RunDESValidation(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDESValidationLeavesNoGoroutines pins that the model runs on the
// caller's goroutine alone: repeated runs leave the goroutine count
// where it was.
func TestDESValidationLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if _, err := RunDESValidation(smallConfig(16, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines went from %d to %d over three runs", before, after)
	}
}

func TestDESValidationDeterministic(t *testing.T) {
	cfg := smallConfig(8, 10)
	a, err := RunDESValidation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDESValidation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("DES validation model not deterministic: %d vs %d", a, b)
	}
}
