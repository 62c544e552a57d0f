// Command bench is the performance-regression harness: it runs the
// simulation-heavy engine benchmarks and the kernel calendar
// microbenchmarks through testing.Benchmark, runs the scale-mode
// sweep trajectory (to 10000x: 500,000 disks, 200,000 stations), runs
// the E19 cache-tier
// sweep (displays/hour, startup latency, and hit rate per cache
// budget × skew × batch window cell), and writes a machine-readable
// report (default BENCH_9.json) with ns/op, B/op, and allocs/op next
// to the recorded baselines.  With -maxregress it exits nonzero when
// any recorded bench regresses past the threshold against its
// reference, so scripts/ci.sh fails on hot-path regressions instead
// of logging them.
//
// Usage:
//
//	bench                     # write BENCH_9.json in the current directory
//	bench -out report.json
//	bench -maxregress 0.20    # fail on >20% ns/op regression vs reference
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"github.com/mmsim/staggered/internal/experiment"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/sim"
)

// baseline records the pre-overhaul numbers of the engines'
// scan-everything hot paths (commit "growth seed", -benchtime 5x,
// GOMAXPROCS=1, Intel Xeon 2.10GHz) — the denominator of the speedup
// column.
var baseline = map[string]Measurement{
	"BenchmarkFigure8a": {NsPerOp: 37718189, BytesPerOp: 19064489, AllocsPerOp: 284294},
	"BenchmarkFigure8b": {NsPerOp: 29827336, BytesPerOp: 13335126, AllocsPerOp: 125745},
	"BenchmarkFigure8c": {NsPerOp: 25207092, BytesPerOp: 12471476, AllocsPerOp: 89857},
	"BenchmarkTable4":   {NsPerOp: 72270958, BytesPerOp: 35492416, AllocsPerOp: 411666},
}

// reference is the regression gate: the engine, scale, and cluster
// benches use the numbers the previous PR's harness recorded in
// BENCH_8.json on the CI machine; the nanosecond-scale calendar
// benches keep the upper end of their recorded range (DESIGN.md §8:
// 60–110 / 20–35 ns/op depending on the VM's state), because
// single-core clock drift alone exceeds 20% at that scale.
// -maxregress compares current ns/op against these — for this PR the
// gate proves the failover instrumentation (dead-member checks in the
// dispatch policies and the server-event drain in the cluster loop)
// did not slow the fault-free hot paths the goldens pin.
// BenchmarkFailover4 has no reference yet; its first recorded numbers
// land in BENCH_9.json and gate the next revision.
var reference = map[string]Measurement{
	"BenchmarkFigure8a":         {NsPerOp: 7673606, BytesPerOp: 445425, AllocsPerOp: 4936},
	"BenchmarkFigure8b":         {NsPerOp: 6024232, BytesPerOp: 400920, AllocsPerOp: 4838},
	"BenchmarkFigure8c":         {NsPerOp: 5477784, BytesPerOp: 377846, AllocsPerOp: 4844},
	"BenchmarkTable4":           {NsPerOp: 13714706, BytesPerOp: 740948, AllocsPerOp: 8896},
	"BenchmarkFaultRecovery":    {NsPerOp: 936801, BytesPerOp: 94379, AllocsPerOp: 1320},
	"BenchmarkStaggeredK1":      {NsPerOp: 20783499, BytesPerOp: 4295901, AllocsPerOp: 105539},
	"BenchmarkCachedFigure8":    {NsPerOp: 8055628, BytesPerOp: 128325, AllocsPerOp: 1442},
	"BenchmarkCluster4":         {NsPerOp: 9176202, BytesPerOp: 267946, AllocsPerOp: 2361},
	"BenchmarkCalendarSchedule": {NsPerOp: 110, BytesPerOp: 0, AllocsPerOp: 0},
	"BenchmarkCalendarCancel":   {NsPerOp: 34, BytesPerOp: 0, AllocsPerOp: 0},
	"BenchmarkScaleSweep":       {NsPerOp: 3007115, BytesPerOp: 226528, AllocsPerOp: 1214},
}

// The scale trajectory carries its own gate: ns/display at the gate
// factor as BENCH_8.json recorded it.  The -maxregress gate enforces
// that the failover plumbing cannot regress it.
const (
	scaleGateFactor = 1000
	scaleGateRefNs  = 2172.6
)

// Measurement is one benchmark's cost per operation.
type Measurement struct {
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// Entry is one benchmark's report row.
type Entry struct {
	Name     string       `json:"name"`
	Iters    int          `json:"iterations"`
	Current  Measurement  `json:"current"`
	Baseline *Measurement `json:"baseline,omitempty"`
	// Speedup is baseline ns/op divided by current ns/op; AllocRatio
	// is baseline allocs/op divided by current allocs/op.
	Speedup    float64 `json:"speedup,omitempty"`
	AllocRatio float64 `json:"alloc_ratio,omitempty"`
}

// Env records the machine the report was produced on: ns/op numbers
// are only comparable between reports from like machines.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// SingleCore flags reports produced on a one-CPU machine, where
	// nanosecond benches see scheduler steal time (see the stderr
	// warning bench prints).
	SingleCore bool `json:"single_core,omitempty"`
}

// Report is the BENCH_9.json document.
type Report struct {
	Note    string                  `json:"note"`
	Env     Env                     `json:"env"`
	Results []Entry                 `json:"results"`
	Scale   []experiment.ScalePoint `json:"scale_sweep,omitempty"`
	// Cache is the E19 memory-tier sweep: displays/hour, startup
	// latency, and cache-hit rate per budget × skew × window cell.
	Cache []experiment.E19Point `json:"cache_sweep,omitempty"`
}

func benchFigure8(mean float64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiment.Figure8(experiment.Quick, mean, []int{1, 8, 32, 64}, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchTable4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAll(experiment.Quick, []int{16, 64}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCalendarSchedule mirrors internal/sim's BenchmarkCalendarSchedule:
// one O(1) wheel insertion per op, drain amortized over 1024 events.
func benchCalendarSchedule(b *testing.B) {
	k := sim.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(sim.Time(i&1023)*1e-4, fn)
		if i&1023 == 1023 {
			k.Run(sim.Infinity)
		}
	}
	k.Run(sim.Infinity)
}

// benchCalendarCancel mirrors internal/sim's BenchmarkCalendarCancel:
// a schedule-then-cancel cycle, both ends O(1) slab hits.
func benchCalendarCancel(b *testing.B) {
	k := sim.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := k.AfterTimer(sim.Time(i&255)*1e-3, fn)
		k.Cancel(tm)
	}
}

// benchCachedFigure8 runs one cache-enabled E19 cell per op: the
// quick geometry under an open Zipf(0.7) stream with a 256 MiB prefix
// cache and an 8-interval batch window — the memory-tier hot path
// (admission, followers, open arrivals) the disk-only benches above
// never enter.
func benchCachedFigure8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.E19Run(0.7, 256, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScaleSweep runs one 10x scale point per op.
func benchScaleSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunScalePoint(10, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFaultRecovery drives the degraded-mode paths of both engines:
// the paper pair at one load point with a disk failing and repairing
// mid-measurement plus a slow-disk window — the fault-path cost the
// fault-free gate above cannot see.
func benchFaultRecovery(b *testing.B) {
	opts := &experiment.Options{
		Faults: fault.NewPlan().
			FailDiskUntil(7, 900, 1500).
			SlowDisk(3, 1800, 2400),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure8TechniquesOpts(experiment.Quick, 20, []int{16}, 1, nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCluster4 runs one 4-server leastloaded cluster point per op —
// the shared-clock loop, dispatch, arrival injection, and the final
// Merge, end to end (DESIGN.md §13).
func benchCluster4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunE20Point(4, "leastloaded", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFailover4 runs one E21 failover point per op — a 4-server
// leastloaded cluster that loses a member mid-window, including the
// kill drain, re-admission, replica healing, and the recovery-curve
// sampler (DESIGN.md §14).
func benchFailover4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunE21Point("leastloaded", 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStaggeredK1 sweeps the first-class staggered technique (k=1,
// Algorithms 1+2) through the registry-built generic engine — the
// same path `sweep -technique staggered` runs.
func benchStaggeredK1(b *testing.B) {
	specs := []experiment.TechSpec{{Key: experiment.TechStaggered, Stride: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure8Techniques(experiment.Quick, 20, []int{8, 32}, 1, specs); err != nil {
			b.Fatal(err)
		}
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	out := flag.String("out", "BENCH_9.json", "report file")
	maxRegress := flag.Float64("maxregress", 0, "fail when any recorded bench's ns/op exceeds its reference by more than this fraction (0 = report only)")
	scaleFactors := flag.String("scalefactors", "1,2,5,10,20,50,100,200,500,1000,2000,5000,10000", "comma-separated scale-sweep factors; empty = skip the sweep")
	flag.Parse()

	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"BenchmarkFigure8a", benchFigure8(10)},
		{"BenchmarkFigure8b", benchFigure8(20)},
		{"BenchmarkFigure8c", benchFigure8(43.5)},
		{"BenchmarkTable4", benchTable4},
		{"BenchmarkFaultRecovery", benchFaultRecovery},
		{"BenchmarkStaggeredK1", benchStaggeredK1},
		{"BenchmarkCachedFigure8", benchCachedFigure8},
		{"BenchmarkCluster4", benchCluster4},
		{"BenchmarkFailover4", benchFailover4},
		{"BenchmarkCalendarSchedule", benchCalendarSchedule},
		{"BenchmarkCalendarCancel", benchCalendarCancel},
		{"BenchmarkScaleSweep", benchScaleSweep},
	}

	report := Report{
		Note: "engine + kernel-calendar regression harness; baseline = pre-overhaul scan-everything hot paths, reference = previous PR's recorded numbers (regression gate)",
		Env: Env{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			SingleCore: runtime.NumCPU() == 1,
		},
	}
	if report.Env.SingleCore {
		fmt.Fprintln(os.Stderr, "bench: WARNING: single-core machine — nanosecond benches include scheduler steal time; treat ns/op comparisons across machines with care")
	}
	factors, err := parseFactors(*scaleFactors)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	failed := false
	for _, bm := range benches {
		res := testing.Benchmark(bm.fn)
		// The gate must not fire on scheduler noise: the CI VM is a
		// single core with multi-millisecond steal-time spikes.  A real
		// regression reproduces; noise does not — so when a measurement
		// lands past the limit, re-measure (up to twice) and keep the
		// best before declaring a regression.
		if ref, ok := reference[bm.name]; ok && *maxRegress > 0 {
			limit := float64(ref.NsPerOp) * (1 + *maxRegress)
			for retry := 0; retry < 2 && float64(res.NsPerOp()) > limit; retry++ {
				if again := testing.Benchmark(bm.fn); again.NsPerOp() < res.NsPerOp() {
					res = again
				}
			}
		}
		entry := Entry{
			Name:  bm.name,
			Iters: res.N,
			Current: Measurement{
				NsPerOp:     res.NsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
				AllocsPerOp: res.AllocsPerOp(),
			},
		}
		if base, ok := baseline[bm.name]; ok {
			b := base
			entry.Baseline = &b
			if entry.Current.NsPerOp > 0 {
				entry.Speedup = float64(b.NsPerOp) / float64(entry.Current.NsPerOp)
			}
			if entry.Current.AllocsPerOp > 0 {
				entry.AllocRatio = float64(b.AllocsPerOp) / float64(entry.Current.AllocsPerOp)
			}
		}
		report.Results = append(report.Results, entry)
		status := ""
		if ref, ok := reference[bm.name]; ok && *maxRegress > 0 {
			limit := float64(ref.NsPerOp) * (1 + *maxRegress)
			if float64(entry.Current.NsPerOp) > limit {
				failed = true
				status = fmt.Sprintf("  REGRESSION (ref %d ns/op, limit %.0f)", ref.NsPerOp, limit)
			}
		}
		fmt.Printf("%-26s %9d iters  %12d ns/op  %10d B/op  %8d allocs/op%s\n",
			bm.name, res.N, entry.Current.NsPerOp, entry.Current.BytesPerOp,
			entry.Current.AllocsPerOp, status)
	}

	if len(factors) > 0 {
		points, err := experiment.ScaleSweep(factors, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		report.Scale = points
		for _, p := range points {
			fmt.Printf("scale %4dx  D=%-6d stations=%-6d  %8.3fs wall  %10.0f intervals/s  %8.0f ns/display\n",
				p.Factor, p.D, p.Stations, p.WallSeconds, p.IntervalsSec, p.NsPerDisplay)
		}
		// Gate the trajectory at the reference factor.  Like the bench
		// gate above, a measurement past the limit re-measures (up to
		// twice, keeping the best) before declaring a regression, so a
		// steal-time spike on the shared CI VM cannot fail the build.
		if *maxRegress > 0 {
			for i := range points {
				if points[i].Factor != scaleGateFactor {
					continue
				}
				limit := scaleGateRefNs * (1 + *maxRegress)
				for retry := 0; retry < 2 && points[i].NsPerDisplay > limit; retry++ {
					again, err := experiment.RunScalePoint(scaleGateFactor, 1)
					if err != nil {
						fmt.Fprintf(os.Stderr, "bench: %v\n", err)
						return 1
					}
					if again.NsPerDisplay < points[i].NsPerDisplay {
						points[i] = again
					}
				}
				if points[i].NsPerDisplay > limit {
					failed = true
					fmt.Printf("scale %4dx  REGRESSION: %.0f ns/display (ref %.0f, limit %.0f)\n",
						scaleGateFactor, points[i].NsPerDisplay, scaleGateRefNs, limit)
				}
			}
		}
	}

	// E19 cache-tier sweep: records the displays/hour, startup-latency,
	// and hit-rate columns per budget × skew × window cell, so the
	// report pins the memory tier's throughput claim next to the
	// disk-only baselines it beats.
	cachePoints, err := experiment.E19(1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	report.Cache = cachePoints
	for _, p := range cachePoints {
		fmt.Printf("cache skew=%.1f mb=%-5d window=%-3d  %8.1f displays/hour  %7.1fs startup  hit %.3f\n",
			p.Skew, p.BudgetMB, p.WindowIntervals, p.DisplaysPerHour, p.StartupMeanSeconds, p.HitRate)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", *out)
	if failed {
		fmt.Fprintln(os.Stderr, "bench: ns/op regression past -maxregress threshold")
		return 1
	}
	return 0
}

func parseFactors(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			part := s[start:i]
			start = i + 1
			v := 0
			for _, c := range part {
				if c < '0' || c > '9' {
					return nil, fmt.Errorf("bad scale factor %q", part)
				}
				v = v*10 + int(c-'0')
			}
			if v <= 0 {
				return nil, fmt.Errorf("bad scale factor %q", part)
			}
			out = append(out, v)
		}
	}
	return out, nil
}
