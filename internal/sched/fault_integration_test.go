package sched

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/mmsim/staggered/internal/fault"
)

// TestFootprintHitsMatchesOrbitWalk checks the arithmetic
// playability predicate against a walk of the placement's stride
// orbit: every disk its m-disk read window visits over
// min(n, D/gcd(k, D)) subobjects, after which the orbit repeats.
func TestFootprintHitsMatchesOrbitWalk(t *testing.T) {
	walk := func(first, m, f, k, d, n int) bool {
		g := d
		for b := k; b != 0; {
			g, b = b, g%b
		}
		steps := min(n, d/g)
		for step := 0; step < steps; step++ {
			for j := 0; j < m; j++ {
				if (first+k*step+j)%d == f {
					return true
				}
			}
		}
		return false
	}
	err := quick.Check(func(dRaw, kRaw, mRaw, nRaw, firstRaw, fRaw uint8) bool {
		d := int(dRaw%60) + 1
		k := int(kRaw)%d + 1
		m := int(mRaw)%d + 1
		n := int(nRaw%80) + 1
		first, f := int(firstRaw)%d, int(fRaw)%d
		return footprintHits(first, m, f, k, d, n) == walk(first, m, f, k, d, n)
	}, &quick.Config{MaxCount: 20000})
	if err != nil {
		t.Fatal(err)
	}
}

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

// TestFaultTransitions drives a small engine through overlapping fault
// events and checks, after each interval, the traced EvFault events (only
// effective transitions are traced), the down count and the sorted
// faulted-disk set: a repeated event is absorbed, a disk stays faulted
// while it is down or slow, and tertiary events touch no disk state.
func TestFaultTransitions(t *testing.T) {
	ev := func(at int, kind fault.Kind, disk int) fault.Event {
		return fault.Event{At: at, Kind: kind, Disk: disk}
	}
	events := []fault.Event{
		ev(1, fault.DiskFail, 3),
		ev(2, fault.DiskFail, 3), // fail a disk that is already down
		ev(3, fault.SlowStart, 3),
		ev(4, fault.DiskRepair, 3), // still slow: stays faulted
		ev(5, fault.SlowEnd, 3),
		ev(6, fault.SlowEnd, 5), // end a slow that never started
		ev(7, fault.TertiaryFail, -1),
		ev(8, fault.TertiaryFail, -1), // fail the tertiary device twice
		ev(9, fault.SlowStart, 7),
		ev(9, fault.DiskFail, 1),
		ev(9, fault.DiskRepair, 12), // repair a disk that is up
		ev(10, fault.TertiaryRepair, -1),
		ev(10, fault.TertiaryRepair, -1),
		ev(11, fault.DiskRepair, 1),
		ev(11, fault.SlowEnd, 7),
	}
	steps := []struct {
		traced  string
		down    int
		faulted []int32
	}{
		0:  {"", 0, nil},
		1:  {"disk-fail 3;", 1, []int32{3}},
		2:  {"", 1, []int32{3}},
		3:  {"slow-start 3;", 1, []int32{3}},
		4:  {"disk-repair 3;", 0, []int32{3}},
		5:  {"slow-end 3;", 0, nil},
		6:  {"", 0, nil},
		7:  {"tertiary-fail -1;", 0, nil},
		8:  {"", 0, nil},
		9:  {"slow-start 7;disk-fail 1;", 1, []int32{1, 7}},
		10: {"tertiary-repair -1;", 1, []int32{1, 7}},
		11: {"disk-repair 1;slow-end 7;", 0, nil},
		12: {"", 0, nil},
	}
	for key, stride := range map[string]int{"striped": 0, "staggered": 2, "vdr": 0} {
		t.Run(key, func(t *testing.T) {
			cfg := chaosConfig(4, 10, 1)
			cfg.Faults = fault.NewPlan().FailDisk(0, 1) // replaced below
			e, _, err := NewEngineFor(key, cfg, stride)
			if err != nil {
				t.Fatal(err)
			}
			e.faultEvents = events
			var traced strings.Builder
			e.SetTracer(func(ev Event) {
				if ev.Kind == EvFault {
					fmt.Fprintf(&traced, "%s %d;", ev.Detail, ev.Object)
				}
			})
			for i, want := range steps {
				traced.Reset()
				e.StepOne()
				if got := traced.String(); got != want.traced {
					t.Errorf("interval %d: traced %q, want %q", i, got, want.traced)
				}
				if e.downCount != want.down {
					t.Errorf("interval %d: downCount %d, want %d", i, e.downCount, want.down)
				}
				if !slices.Equal(e.faultedDisks, want.faulted) {
					t.Errorf("interval %d: faultedDisks %v, want %v", i, e.faultedDisks, want.faulted)
				}
			}
		})
	}
}
