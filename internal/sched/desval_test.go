package sched

import (
	"math"
	"testing"
)

// TestDESValidationAgreesWithIntervalEngine is the model cross-check:
// the process-oriented CSIM-style implementation and the interval-
// quantized engine must agree on throughput across loads and
// distributions.  Small differences are allowed (they may order
// same-interval events differently), large ones mean one of the two
// models is wrong.
func TestDESValidationAgreesWithIntervalEngine(t *testing.T) {
	for _, tc := range []struct {
		stations int
		mean     float64
	}{
		{1, 5},
		{8, 5},
		{16, 10},
		{32, 10},
	} {
		cfg := smallConfig(tc.stations, tc.mean)
		ie, err := NewEngine(cfg, &stripedTech{})
		if err != nil {
			t.Fatal(err)
		}
		ri := ie.Run()
		des, err := RunDESValidation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ri.Displays == 0 && des == 0 {
			continue
		}
		diff := math.Abs(float64(des-ri.Displays)) / float64(ri.Displays)
		if diff > 0.05 {
			t.Errorf("stations=%d mean=%v: interval engine %d displays, DES model %d (%.1f%% apart)",
				tc.stations, tc.mean, ri.Displays, des, diff*100)
		}
	}
}

// TestDESValidationAgreesWithGenericEngine repeats the model
// cross-check against the registry-built generic engine: the
// mechanism/policy split must not perturb the agreement with the
// process-oriented model.
func TestDESValidationAgreesWithGenericEngine(t *testing.T) {
	for _, tc := range []struct {
		stations int
		mean     float64
	}{
		{1, 5},
		{8, 5},
		{16, 10},
		{32, 10},
	} {
		cfg := smallConfig(tc.stations, tc.mean)
		ie, _, err := NewEngineFor("striped", cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		ri := ie.Run()
		des, err := RunDESValidation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ri.Displays == 0 && des == 0 {
			continue
		}
		diff := math.Abs(float64(des-ri.Displays)) / float64(ri.Displays)
		if diff > 0.05 {
			t.Errorf("stations=%d mean=%v: generic engine %d displays, DES model %d (%.1f%% apart)",
				tc.stations, tc.mean, ri.Displays, des, diff*100)
		}
	}
}

func TestDESValidationRejectsUnsupported(t *testing.T) {
	cfg := smallConfig(4, 5)
	cfg.Fragmented = true
	if _, err := RunDESValidation(cfg); err == nil {
		t.Error("fragmented admission accepted")
	}
	cfg = smallConfig(4, 5)
	cfg.ThinkMeanSeconds = 1
	if _, err := RunDESValidation(cfg); err == nil {
		t.Error("think time accepted")
	}
	cfg = smallConfig(4, 5)
	cfg.Stations = 0
	if _, err := RunDESValidation(cfg); err == nil {
		t.Error("invalid config accepted")
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
