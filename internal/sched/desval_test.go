package sched

import (
	"math"
	"testing"
)

// TestDESValidationAgreesWithIntervalEngine is the model cross-check:
// the process-oriented CSIM-style implementation and the interval
// engine running the striped technique must agree on throughput at
// every point of the cross-check grid cmd/repro prints (three means by
// five station counts).  On the shared interval clock the two models
// order each boundary's events alike, so they agree within 0.3% at 13
// points; the two residuals DESIGN.md names stay under 3%.
func TestDESValidationAgreesWithIntervalEngine(t *testing.T) {
	checkDESAgreement(t, func(cfg Config) (*Engine, error) {
		return NewEngine(cfg, &stripedTech{})
	})
}

// TestDESValidationAgreesWithGenericEngine repeats the model
// cross-check against the registry-built engine: the mechanism/policy
// split must not perturb the agreement with the process-oriented model.
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
// every workload field it does not model instead of silently running
// the closed geometric workload.
func TestDESValidationRejectsUnsupported(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"zipf":       func(c *Config) { c.ZipfSkew = 1.1 },
		"open":       func(c *Config) { c.ArrivalsPerHour = 3000 },
		"cache":      func(c *Config) { c.Cache = cacheSpec() },
		"zipf flip":  func(c *Config) { c.ZipfFlipInterval = 100 },
		"no station": func(c *Config) { c.Stations = 0 },
	} {
		cfg := smallConfig(8, 10)
		mutate(&cfg)
		if _, err := RunDESValidation(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
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
