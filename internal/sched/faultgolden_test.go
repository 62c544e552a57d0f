package sched

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/mmsim/staggered/internal/fault"
)

// TestEmptyFaultPlanGolden proves the fault path costs nothing when
// disabled: with an EMPTY (but non-nil) fault plan attached to every
// configuration, both golden dumps must stay byte-identical to their
// pinned files, and every degraded-mode counter must be zero.  This
// is the contract that lets every pre-fault result in the repo stand.
func TestEmptyFaultPlanGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweeps are not short")
	}
	withEmptyPlan := func(cfg *Config) { cfg.Faults = fault.NewPlan() }

	got := goldenDumpWith(t, withEmptyPlan)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_sweep.txt"))
	if err != nil {
		t.Fatalf("missing golden dump: %v", err)
	}
	if got != string(want) {
		t.Error("49-config dump with an empty fault plan differs from golden")
	}

	got = staggeredGoldenDump(t, withEmptyPlan)
	want, err = os.ReadFile(filepath.Join("testdata", "golden_staggered.txt"))
	if err != nil {
		t.Fatalf("missing staggered golden dump: %v", err)
	}
	if got != string(want) {
		t.Error("staggered dump with an empty fault plan differs from golden")
	}
}

// TestEmptyFaultPlanCountersZero asserts a fault-free run reports
// zeroed degraded-mode counters — the half of the no-cost contract the
// legacy golden projection cannot see.
func TestEmptyFaultPlanCountersZero(t *testing.T) {
	cfg := smallConfig(8, 20)
	cfg.Faults = fault.NewPlan()
	e, err := NewEngine(cfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunChecked()
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedHiccups != 0 || res.AbortedDisplays != 0 ||
		res.RejectedDegraded != 0 || res.StarvedMaterializations != 0 {
		t.Errorf("fault-free run has nonzero degraded counters: %+v", res)
	}
	if res.Requests <= 0 {
		t.Errorf("Requests = %d, want positive workload traffic", res.Requests)
	}
}
