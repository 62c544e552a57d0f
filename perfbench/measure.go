package main

import (
	"math"
	"reflect"
	"runtime"
	"time"
)

// Repeat counts of an untraced run.  Build repeats alone are timed
// until minBuilds are done and a fifth of the budget is spent, at most
// maxBuilds.  Build-and-run repeats then fill the rest of the budget,
// at least minRuns.
const (
	minBuilds = 5
	maxBuilds = 200
	minRuns   = 3
)

const mib = 1 << 20

// phase is one timed call: its wall time and what it allocated.
type phase struct {
	seconds        float64
	bytes, mallocs uint64
	gcs            uint32
}

// timed runs f after a forced GC and returns its wall time and the
// allocations and collections it caused.
func timed(f func()) phase {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t := time.Now()
	f()
	seconds := time.Since(t).Seconds()
	runtime.ReadMemStats(&after)
	return phase{
		seconds: seconds,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs,
		gcs:     after.NumGC - before.NumGC,
	}
}

// sample is one untraced build and run.
type sample struct {
	build, run phase
	heap       float64 // live heap the simulation holds after its run
	out        outcome
	problems   []string
}

// runOnce builds and runs the workload once, untraced.  The live heap
// is sampled after a forced GC while the simulation is still reachable,
// less the heap left once it is dropped, so it counts the simulation
// and not the benchmark.
func runOnce(w *workload, seed uint64) (sample, error) {
	var sim simulation
	var err error
	build := timed(func() { sim, err = w.build(seed) })
	if err != nil {
		return sample{}, err
	}
	var out outcome
	var problems []string
	run := timed(func() { out, problems, err = sim.run() })
	if err != nil {
		return sample{}, err
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	held := ms.HeapAlloc
	runtime.KeepAlive(sim)
	sim = simulation{}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return sample{
		build:    build,
		run:      run,
		heap:     float64(held) - float64(ms.HeapAlloc),
		out:      out,
		problems: append(problems, w.problems(out)...),
	}, nil
}

// repeat calls body with 0, 1, 2, … until it has run at least least
// times and either most times or until one more call, taking as long as
// the longest so far, would end after end.  It stops at body's first
// error.
func repeat(least, most int, end time.Time, body func(i int) error) error {
	var longest time.Duration
	for i := 0; i < least || (i < most && time.Now().Add(longest).Before(end)); i++ {
		t := time.Now()
		if err := body(i); err != nil {
			return err
		}
		longest = max(longest, time.Since(t))
	}
	return nil
}

// measure reports the end-to-end metrics of untraced runs.  A repeat
// builds, or builds and runs, the simulation of every seed the run
// covers (workload.seeds), and its times are the mean per simulation.
// A build and a run do the same work every time for a seed, so the
// fastest repeat is their cost and the slower ones measure the host:
// setup_s and run_s are minimums.  The memory metrics are medians over
// the simulations.  The simulated metrics are means over the seeds of
// the first repeat, which every later repeat must reproduce exactly.
func measure(w *workload, seed uint64, budget time.Duration, ck *checks) (map[string]metric, error) {
	start := time.Now()
	seeds := w.seeds(seed)
	n := float64(len(seeds))
	var builds, runs, allocs, heaps []float64
	err := repeat(minBuilds, maxBuilds, start.Add(budget/5), func(int) error {
		var err error
		p := timed(func() {
			for _, s := range seeds {
				if _, err = w.build(s); err != nil {
					return
				}
			}
		})
		builds = append(builds, p.seconds/n)
		return err
	})
	if err != nil {
		return nil, err
	}
	firsts := make([]outcome, len(seeds))
	err = repeat(minRuns, math.MaxInt, start.Add(budget), func(i int) error {
		var build, run float64
		for r, s := range seeds {
			smp, err := runOnce(w, s)
			if err != nil {
				return err
			}
			if i == 0 {
				firsts[r] = smp.out
			} else if !reflect.DeepEqual(smp.out, firsts[r]) {
				smp.problems = append(smp.problems, "result differs from the first run of the same seed")
			}
			ck.record(smp.problems)
			build += smp.build.seconds
			run += smp.run.seconds
			allocs = append(allocs, float64(smp.build.bytes+smp.run.bytes))
			heaps = append(heaps, smp.heap)
		}
		builds = append(builds, build/n)
		runs = append(runs, run/n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var throughput, startup, served float64
	for _, o := range firsts {
		failed, issued := unserved(o)
		throughput += o.res.Throughput()
		startup += o.res.Latency.Mean()
		served += 1 - float64(failed)/float64(issued)
	}
	return metrics(endToEnd, map[string]float64{
		"setup_s":           minimum(builds),
		"run_s":             minimum(runs),
		"live_heap_mb":      median(heaps) / mib,
		"alloc_mb":          median(allocs) / mib,
		"displays_per_hour": throughput / n,
		"startup_mean_s":    startup / n,
		"served_frac":       served / n,
	}), nil
}

// endToEnd lists the end-to-end metrics with their units, as
// BENCHMARK.json declares them.
var endToEnd = []declared{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"live_heap_mb", "MB"},
	{"alloc_mb", "MB"},
	{"displays_per_hour", "displays/h"},
	{"startup_mean_s", "s"},
	{"served_frac", "ratio"},
}
