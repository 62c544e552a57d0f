package sched

import (
	"testing"

	"github.com/mmsim/staggered/internal/cache"
)

// churnConfig is a farm big enough to hold the whole catalog (no
// materialization noise) with the prefix cache sized for the Zipf hot
// head, so the cache hit rate isolates the tier's reaction to
// popularity churn.
func churnConfig(seed uint64) Config {
	cfg := smallConfig(32, 5)
	cfg.CapacityFragments = 120 // 40 slots: every object stays resident
	cfg.ZipfSkew = 1.1
	cfg.Seed = seed
	cfg.WarmupIntervals = 400
	cfg.MeasureIntervals = 3200
	cfg.Cache = &cache.Spec{BudgetBytes: 256 << 20}
	return cfg
}

// TestZipfFlipReconverges drives the popularity-churn scenario
// through the steppable primitives: a mid-measurement FlipHalf moves
// the Zipf hot head onto previously cold objects, the pinned-prefix
// hit rate collapses in the window after the flip, and the
// popularity-decay cache re-converges — the hit rate recovers to near
// its pre-flip level within a bounded number of windows.
func TestZipfFlipReconverges(t *testing.T) {
	const window = 400
	cfg := churnConfig(3)
	cfg.ZipfFlipInterval = cfg.WarmupIntervals + 2*window // flip as window 2 opens

	e, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Prime()
	for e.Now() < cfg.WarmupIntervals {
		e.StepOne()
	}

	var rates []float64
	for e.HasPendingWork() {
		e.ResetWindow()
		for i := 0; i < window && e.HasPendingWork(); i++ {
			e.StepOne()
		}
		snap := e.Snapshot()
		if snap.Requests == 0 {
			t.Fatal("window saw no requests")
		}
		rates = append(rates, snap.CacheHitRate())
	}
	if len(rates) != 8 {
		t.Fatalf("got %d windows, want 8", len(rates))
	}

	preFlip := rates[1]
	postFlip := rates[2]
	if preFlip < 0.3 {
		t.Fatalf("pre-flip hit rate %.3f too low for the test to mean anything (windows %v)", preFlip, rates)
	}
	if postFlip > preFlip-0.05 {
		t.Errorf("flip did not bite: hit rate %.3f before, %.3f after (windows %v)", preFlip, postFlip, rates)
	}
	// Bounded re-convergence: within three windows of the flip the
	// decayed cache must be back to ≥90% of the pre-flip hit rate.
	recovered := false
	for _, r := range rates[3:6] {
		if r >= preFlip*0.9 {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Errorf("hit rate did not re-converge within 3 windows of the flip: pre-flip %.3f, windows %v", preFlip, rates)
	}
}

// TestRunCheckedAlreadyRun pins the double-Run contract: RunChecked
// on an engine that has already run (or was primed and stepped)
// returns ErrAlreadyRun instead of panicking, and Prime is idempotent
// — priming twice must not double-seed the stations.
func TestRunCheckedAlreadyRun(t *testing.T) {
	cfg := smallConfig(4, 10)
	cfg.WarmupIntervals, cfg.MeasureIntervals = 10, 50

	e, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunChecked(); err != ErrAlreadyRun {
		t.Fatalf("second RunChecked returned %v, want ErrAlreadyRun", err)
	}

	// Prime idempotence: a double-primed engine steps identically to a
	// Run (seeding stations twice would panic the workload layer).
	a, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	a.Prime()
	a.Prime()
	for a.Now() < cfg.WarmupIntervals {
		a.StepOne()
	}
	a.ResetWindow()
	for a.HasPendingWork() {
		a.StepOne()
	}
	got := a.Snapshot()
	a.Close()
	if _, err := a.RunChecked(); err != ErrAlreadyRun {
		t.Fatalf("RunChecked after stepping returned %v, want ErrAlreadyRun", err)
	}

	b, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	if want := b.Run(); got != want {
		t.Fatalf("primitive-driven run diverged from Run():\n got %+v\nwant %+v", got, want)
	}
}

// TestZipfFlipOffIsByteIdentical pins that the churn option is inert
// when disabled: ZipfFlipInterval = 0 must not change a Result in any
// byte (the golden configurations all run with it off).
func TestZipfFlipOffIsByteIdentical(t *testing.T) {
	cfg := churnConfig(9)
	cfg.MeasureIntervals = 800

	run := func(cfg Config) Result {
		e, err := NewEngine(cfg, &stripedTech{})
		if err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}
	base := run(cfg)
	flipped := cfg
	flipped.ZipfFlipInterval = cfg.WarmupIntervals + 400
	if run(cfg) != base {
		t.Fatal("re-run with identical config diverged — determinism broke")
	}
	if run(flipped) == base {
		t.Fatal("mid-measurement flip had no effect at all — the hook is dead")
	}
}
