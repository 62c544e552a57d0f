package sched

import "testing"

// TestThinkTimeReducesLoad: with a think time comparable to the
// display time, a closed system of N stations offers roughly half the
// load, so completed displays must drop accordingly.
func TestThinkTimeReducesLoad(t *testing.T) {
	// Six stations on a ten-cluster farm: load-limited, not
	// capacity-limited, so the think time shows up directly.
	base := smallConfig(6, 5)
	e0, err := NewEngine(base, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	r0 := e0.Run()

	withThink := base
	// Think mean = one display time.
	withThink.ThinkMeanSeconds = float64(base.Subobjects) * base.IntervalSeconds()
	e1, err := NewEngine(withThink, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := e1.Run()

	if r1.Hiccups != 0 {
		t.Fatalf("hiccups with think time: %d", r1.Hiccups)
	}
	ratio := float64(r1.Displays) / float64(r0.Displays)
	if ratio < 0.35 || ratio > 0.65 {
		t.Fatalf("think-time throughput ratio = %v (displays %d vs %d), want ~0.5",
			ratio, r1.Displays, r0.Displays)
	}
}

func TestThinkTimeDeterministic(t *testing.T) {
	cfg := smallConfig(8, 10)
	cfg.ThinkMeanSeconds = 10
	run := func() Result {
		e, err := NewEngine(cfg, &stripedTech{})
		if err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}
	a, b := run(), run()
	if a.Displays != b.Displays {
		t.Fatal("think-time runs not reproducible")
	}
}

func TestNegativeThinkRejected(t *testing.T) {
	cfg := smallConfig(8, 10)
	cfg.ThinkMeanSeconds = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative think time accepted")
	}
}
