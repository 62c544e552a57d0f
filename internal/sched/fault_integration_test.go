package sched

import (
	"errors"
	"strings"
	"testing"

	"github.com/mmsim/staggered/internal/fault"
)

// TestDiskFailureDegradesStriped pins the striped degraded path: a
// mid-run disk failure must produce degraded hiccups, aborts, or
// degraded rejections — and with k = M = 5 on D = 50 the blast radius
// is a strict subset of the catalog, so some displays must still
// complete.
func TestDiskFailureDegradesStriped(t *testing.T) {
	cfg := smallConfig(16, 10)
	cfg.Faults = fault.NewPlan().FailDisk(7, cfg.WarmupIntervals+100)
	e, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if res.DegradedHiccups+res.AbortedDisplays+res.RejectedDegraded == 0 {
		t.Errorf("disk failure left no degraded trace: %+v", res)
	}
	if res.RejectedDegraded == 0 {
		t.Errorf("no admissions rejected while objects on disk 7 were unplayable: %+v", res)
	}
	if res.Displays == 0 {
		t.Errorf("single-disk failure killed all throughput: %+v", res)
	}
}

// TestDiskRepairRestoresService pins repair: failing a disk and
// repairing it shortly after must strictly outperform (in rejections)
// leaving it dead for the rest of the run.
func TestDiskRepairRestoresService(t *testing.T) {
	base := smallConfig(16, 10)
	at := base.WarmupIntervals + 100

	dead := base
	dead.Faults = fault.NewPlan().FailDisk(7, at)
	repaired := base
	repaired.Faults = fault.NewPlan().FailDiskUntil(7, at, at+200)

	run := func(cfg Config) Result {
		e, err := NewEngine(cfg, &stripedTech{})
		if err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}
	rd, rr := run(dead), run(repaired)
	if rr.RejectedDegraded >= rd.RejectedDegraded && rd.RejectedDegraded > 0 {
		t.Errorf("repair did not reduce rejections: dead %d, repaired %d",
			rd.RejectedDegraded, rr.RejectedDegraded)
	}
	if rr.Displays < rd.Displays {
		t.Errorf("repaired run completed fewer displays (%d) than dead run (%d)", rr.Displays, rd.Displays)
	}
}

// TestSlowDiskInflatesHiccupsOnly pins the slow-disk semantics: a
// latency window produces degraded hiccups but neither aborts nor
// rejections (the data is still there).
func TestSlowDiskInflatesHiccupsOnly(t *testing.T) {
	cfg := smallConfig(16, 10)
	at := cfg.WarmupIntervals + 100
	cfg.Faults = fault.NewPlan().SlowDisk(3, at, at+500)
	e, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if res.DegradedHiccups == 0 {
		t.Errorf("slow disk produced no degraded hiccups: %+v", res)
	}
	if res.AbortedDisplays != 0 || res.RejectedDegraded != 0 {
		t.Errorf("slow disk aborted or rejected displays: %+v", res)
	}
}

// TestVDRClusterFailure pins the VDR degraded path: failing one disk
// fails its whole cluster, so displays on it abort or degrade while
// other clusters keep serving.
func TestVDRClusterFailure(t *testing.T) {
	cfg := smallConfig(16, 10)
	cfg.Faults = fault.NewPlan().FailDisk(2, cfg.WarmupIntervals+50)
	e, err := NewEngine(cfg, &vdrTech{})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if res.DegradedHiccups+res.AbortedDisplays+res.RejectedDegraded == 0 {
		t.Errorf("cluster failure left no degraded trace: %+v", res)
	}
	if res.Displays == 0 {
		t.Errorf("one failed cluster of %d killed all throughput: %+v", cfg.D/cfg.M, res)
	}
}

// TestTertiaryOutageStallsStaging pins the tertiary outage: during
// the outage no materialization can run, so the tertiary-busy
// fraction drops versus the fault-free run.
func TestTertiaryOutageStallsStaging(t *testing.T) {
	base := smallConfig(32, 43.5) // near-uniform: heavy miss traffic
	out := base
	out.Faults = fault.NewPlan().TertiaryOutage(base.WarmupIntervals, base.WarmupIntervals+base.MeasureIntervals/2)

	run := func(cfg Config) Result {
		e, err := NewEngine(cfg, &stripedTech{})
		if err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}
	clean, outage := run(base), run(out)
	if clean.TertiaryBusy == 0 {
		t.Skip("workload produced no staging traffic; outage unobservable")
	}
	if outage.TertiaryBusy >= clean.TertiaryBusy {
		t.Errorf("half-run tertiary outage did not reduce device busy: clean %.4f, outage %.4f",
			clean.TertiaryBusy, outage.TertiaryBusy)
	}
}

// TestStarvationSurfacesTypedError pins the livelock fix: the k = 1
// exact-fit configuration that silently delivered zero displays for
// three PRs (DESIGN.md §9) must now fail loudly through RunChecked.
func TestStarvationSurfacesTypedError(t *testing.T) {
	cfg := smallConfig(8, 20)
	cfg.K = 1
	e, err := NewEngine(cfg, &stripedTech{staggered: true})
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := e.RunChecked()
	if runErr == nil {
		t.Fatalf("k=1 exact-fit run reported no starvation (res %+v)", res)
	}
	var sErr *StarvationError
	if !errors.As(runErr, &sErr) {
		t.Fatalf("RunChecked error is %T, want *StarvationError", runErr)
	}
	if sErr.Starved <= 0 || sErr.K != 1 {
		t.Errorf("starvation error fields off: %+v", sErr)
	}
	if !strings.Contains(sErr.Error(), "starved") {
		t.Errorf("error text %q does not mention starvation", sErr.Error())
	}
	if res.StarvedMaterializations == 0 && sErr.Starved > 0 && cfg.WarmupIntervals == 0 {
		t.Errorf("window counter missed the starvations: %+v", res)
	}
}

// TestZeroRetryLimitStarves pins that the zero-value PlaceRetryLimit
// is the default cap, not a retry-forever mode: the same k = 1
// exact-fit run must starve loudly instead of livelocking silently.
func TestZeroRetryLimitStarves(t *testing.T) {
	cfg := smallConfig(8, 20)
	cfg.K = 1
	cfg.PlaceRetryLimit = 0
	e, err := NewEngine(cfg, &stripedTech{staggered: true})
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := e.RunChecked()
	var sErr *StarvationError
	if !errors.As(runErr, &sErr) {
		t.Fatalf("RunChecked error is %v, want *StarvationError", runErr)
	}
	if res.StarvedMaterializations == 0 {
		t.Errorf("zero-limit run counted no starvations in the window: %+v", res)
	}
}

// TestEvictionPressureRescuesExactFit pins the fallback: under
// eviction pressure the k = 1 exact-fit farm defragments instead of
// starving every staging, so strictly fewer stagings starve than with
// the bare retry cap.
func TestEvictionPressureRescuesExactFit(t *testing.T) {
	run := func(pressure bool) (Result, int) {
		cfg := smallConfig(8, 20)
		cfg.K = 1
		cfg.EvictionPressure = pressure
		e, err := NewEngine(cfg, &stripedTech{staggered: true})
		if err != nil {
			t.Fatal(err)
		}
		res, _ := e.RunChecked()
		return res, e.starvedTotal
	}
	bare, bareStarved := run(false)
	pressured, pressuredStarved := run(true)
	if pressuredStarved >= bareStarved {
		t.Errorf("eviction pressure did not reduce starvation: bare %d, pressured %d",
			bareStarved, pressuredStarved)
	}
	if pressured.Displays+pressured.Materializa <= bare.Displays+bare.Materializa {
		t.Errorf("eviction pressure did not recover useful work: bare %+v, pressured %+v",
			bare, pressured)
	}
}

// TestFaultTraceEvents pins that the tracer sees fault transitions
// and the degraded-path events.
func TestFaultTraceEvents(t *testing.T) {
	cfg := smallConfig(16, 10)
	at := cfg.WarmupIntervals + 100
	cfg.Faults = fault.NewPlan().FailDiskUntil(7, at, at+300)
	e, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[EventKind]int{}
	e.SetTracer(func(ev Event) { kinds[ev.Kind]++ })
	e.Run()
	if kinds[EvFault] != 2 {
		t.Errorf("saw %d fault events, want 2 (fail + repair)", kinds[EvFault])
	}
	if kinds[EvReject] == 0 && kinds[EvAbort] == 0 {
		t.Errorf("no degraded-path trace events fired: %v", kinds)
	}
}
