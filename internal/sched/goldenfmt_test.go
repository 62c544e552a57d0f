package sched

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mmsim/staggered/internal/metrics"
)

// legacyResult mirrors the Result field set the golden dumps were
// recorded with (before the degraded-mode counters were added), in
// the exact declaration order, so %+v of a projection reproduces the
// pinned lines byte for byte.  On a fault-free run the projected
// fields carry everything the run produced — the new counters are all
// zero by construction (asserted by TestEmptyFaultPlanGolden), except
// Requests, which existed implicitly as workload traffic and was
// never dumped.
type legacyResult struct {
	Technique string
	Stations  int
	DistMean  float64

	WarmupSeconds  float64
	MeasureSeconds float64

	Displays        int
	Materializa     int
	Replications    int
	Hiccups         int
	Coalescings     int
	TertiaryBusy    float64
	DiskBusy        float64
	UniqueResidents int

	Latency metrics.Tally
}

// legacyView projects a Result onto the pinned golden field set.
func legacyView(r Result) legacyResult {
	return legacyResult{
		Technique:       r.Technique,
		Stations:        r.Stations,
		DistMean:        r.DistMean,
		WarmupSeconds:   r.WarmupSeconds,
		MeasureSeconds:  r.MeasureSeconds,
		Displays:        r.Displays,
		Materializa:     r.Materializa,
		Replications:    r.Replications,
		Hiccups:         r.Hiccups,
		Coalescings:     r.Coalescings,
		TertiaryBusy:    r.TertiaryBusy,
		DiskBusy:        r.DiskBusy,
		UniqueResidents: r.UniqueResidents,
		Latency:         r.Latency,
	}
}

// checkGoldenDump compares a result dump with testdata/<file>, or
// rewrites the file when update is set; flag names the update flag
// for the missing-file hint.  A mismatch reports the first drifting
// line.
func checkGoldenDump(t *testing.T, file, got string, update bool, flag string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden dump (run with -%s): %v", flag, err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range wantLines {
		if i >= len(gotLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("result drift at line %d:\n  golden:  %s\n  current: %s", i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatal("result dump differs from golden (extra lines)")
}
