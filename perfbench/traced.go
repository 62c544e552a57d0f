package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"time"

	"github.com/mmsim/staggered/internal/core"
	"github.com/mmsim/staggered/internal/rng"
	"github.com/mmsim/staggered/internal/sched"
	wl "github.com/mmsim/staggered/internal/workload"
)

// perLayer lists the per-layer metrics with their units, as
// BENCHMARK.json declares them.  Every workload reports all of them,
// zero where a layer is not measured on it (NOTES.md says which).
var perLayer = []declared{
	{"sched.build_s", "s"},
	{"sched.build_mallocs", "count"},
	{"core.place_s", "s"},
	{"core.places", "count"},
	{"core.evictions", "count"},
	{"sched.prime_s", "s"},
	{"sched.warmup_s", "s"},
	{"sched.measure_s", "s"},
	{"sched.step_us_p50", "us"},
	{"sched.step_us_p99", "us"},
	{"sched.queue_p50", "count"},
	{"sched.queue_p99", "count"},
	{"sched.active_mean", "count"},
	{"sched.run_mallocs", "count"},
	{"sched.gc_cycles", "count"},
	{"sched.requests", "count"},
	{"sched.admits", "count"},
	{"sched.completes", "count"},
	{"sched.coalescings", "count"},
	{"sched.disk_busy", "ratio"},
	{"sched.startup_p50_s", "s"},
	{"sched.startup_p99_s", "s"},
	{"tertiary.materializations", "count"},
	{"tertiary.busy", "ratio"},
	{"tertiary.starved", "count"},
	{"cache.served", "count"},
	{"cache.followers", "count"},
	{"cache.hit_rate", "ratio"},
	{"cluster.build_s", "s"},
	{"cluster.run_s", "s"},
	{"cluster.failed_over", "count"},
	{"cluster.orphaned", "count"},
	{"cluster.readmitted", "count"},
	{"cluster.healed", "count"},
	{"cluster.no_holder", "count"},
	{"cluster.route_imbalance", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.unserved_frac", "ratio"},
}

// tracing is one instrumented build and run.
type tracing struct {
	layers   map[string]float64
	out      outcome
	run      float64 // seconds of the run phase, the traced counterpart of run_s
	problems []string
}

// traced pairs untraced runs with traced ones until the budget is spent
// and reports the per-layer metrics: medians over the traced runs, with
// the malloc and GC counts taken from the untraced runs (tracing
// allocates), and the tracing overhead between the two.  A traced run
// must reproduce its untraced partner's outcome exactly.  Only the
// first of the run's seeds is traced.
func traced(w *workload, seed uint64, budget time.Duration, ck *checks) (map[string]metric, error) {
	start := time.Now()
	seed = w.seeds(seed)[0]
	var plain, instrumented []float64
	readings := map[string][]float64{}
	err := repeat(1, math.MaxInt, start.Add(budget), func(int) error {
		s, err := runOnce(w, seed)
		if err != nil {
			return err
		}
		ck.record(s.problems)
		t, err := w.traceRun(seed)
		if err != nil {
			return err
		}
		problems := append(t.problems, w.problems(t.out)...)
		if !reflect.DeepEqual(t.out, s.out) {
			problems = append(problems, "traced result differs from the untraced one")
		}
		ck.record(problems)
		plain = append(plain, s.run.seconds)
		instrumented = append(instrumented, t.run)
		t.layers["sched.build_mallocs"] = float64(s.build.mallocs)
		t.layers["sched.run_mallocs"] = float64(s.run.mallocs)
		t.layers["sched.gc_cycles"] = float64(s.run.gcs)
		for k, v := range t.layers {
			readings[k] = append(readings[k], v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	values := map[string]float64{"bench.trace_overhead_frac": median(instrumented)/median(plain) - 1}
	for k, v := range readings {
		values[k] = median(v)
	}
	return metrics(perLayer, values), nil
}

// traceRun builds and runs the workload once with per-layer timing.
func (w *workload) traceRun(seed uint64) (tracing, error) {
	if w.cluster != nil {
		return traceCluster(w, seed)
	}
	return traceEngine(w, seed)
}

// traceEngine drives a single engine through the primitives Run is made
// of — Prime, StepOne, ResetWindow, Snapshot — with a tracer attached,
// timing each phase and every step of the window and sampling the
// queue and the displays in delivery after each step.
func traceEngine(w *workload, seed uint64) (tracing, error) {
	ti, cfg, err := w.engineConfig(seed)
	if err != nil {
		return tracing{}, err
	}
	l := map[string]float64{}

	ids, err := preloadIDs(cfg)
	if err != nil {
		return tracing{}, err
	}
	runtime.GC()
	t := time.Now()
	placed, err := replayPreload(cfg, ids)
	if err != nil {
		return tracing{}, err
	}
	l["core.place_s"] = time.Since(t).Seconds()
	l["core.places"] = float64(placed)

	runtime.GC()
	t = time.Now()
	e, err := ti.New(cfg)
	if err != nil {
		return tracing{}, err
	}
	l["sched.build_s"] = time.Since(t).Seconds()
	log := newEventLog(cfg.Stations)
	e.SetTracer(log.observe)
	defer e.Close()

	steps := make([]float64, 0, cfg.MeasureIntervals)
	queued := make([]float64, 0, cfg.MeasureIntervals)
	active := 0
	runtime.GC()
	t0 := time.Now()
	e.Prime()
	t1 := time.Now()
	for e.Now() < cfg.WarmupIntervals {
		e.StepOne()
	}
	t2 := time.Now()
	e.ResetWindow()
	log.inWindow = true
	for e.HasPendingWork() {
		s := time.Now()
		e.StepOne()
		steps = append(steps, float64(time.Since(s).Nanoseconds())/1e3)
		queued = append(queued, float64(e.QueuedRequests()))
		active += e.ActiveDisplays()
	}
	t3 := time.Now()
	res := e.Snapshot()

	sort.Float64s(steps)
	sort.Float64s(queued)
	dt := cfg.IntervalSeconds()
	l["sched.prime_s"] = t1.Sub(t0).Seconds()
	l["sched.warmup_s"] = t2.Sub(t1).Seconds()
	l["sched.measure_s"] = t3.Sub(t2).Seconds()
	l["sched.step_us_p50"] = quantile(steps, 0.5)
	l["sched.step_us_p99"] = quantile(steps, 0.99)
	l["sched.queue_p50"] = quantile(queued, 0.5)
	l["sched.queue_p99"] = quantile(queued, 0.99)
	l["sched.active_mean"] = float64(active) / float64(len(steps))
	l["sched.startup_p50_s"] = log.waitQuantile(0.5) * dt
	l["sched.startup_p99_s"] = log.waitQuantile(0.99) * dt
	l["core.evictions"] = float64(log.evictions)
	out := outcome{res: res}
	addCounters(l, out)
	return tracing{layers: l, out: out, run: t3.Sub(t0).Seconds(), problems: log.problems(res)}, nil
}

// traceCluster times the cluster's build and run.  The cluster exposes
// only New and Run, so its members are measured through the Result
// counters alone.  The run's output checks are left to traced, as for
// an engine.
func traceCluster(w *workload, seed uint64) (tracing, error) {
	s, err := runOnce(w, seed)
	if err != nil {
		return tracing{}, err
	}
	l := map[string]float64{
		"sched.build_s":   s.build.seconds,
		"cluster.build_s": s.build.seconds,
		"cluster.run_s":   s.run.seconds,
	}
	addCounters(l, s.out)
	return tracing{layers: l, out: s.out, run: s.run.seconds}, nil
}

// addCounters fills the readings that come straight from the Result
// counters.
func addCounters(l map[string]float64, o outcome) {
	r := o.res
	l["sched.requests"] = float64(r.Requests)
	l["sched.admits"] = float64(r.Latency.N())
	l["sched.completes"] = float64(r.Displays)
	l["sched.coalescings"] = float64(r.Coalescings)
	l["sched.disk_busy"] = r.DiskBusy
	l["tertiary.materializations"] = float64(r.Materializa)
	l["tertiary.busy"] = r.TertiaryBusy
	l["tertiary.starved"] = float64(r.StarvedMaterializations)
	l["cache.served"] = float64(r.ServedFromCache)
	l["cache.followers"] = float64(r.BatchedFollowers)
	l["cache.hit_rate"] = r.CacheHitRate()
	failed, issued := unserved(o)
	l["bench.unserved_frac"] = float64(failed) / float64(issued)
	if cl := o.cluster; cl != nil {
		l["cluster.failed_over"] = float64(cl.FailedOver)
		l["cluster.orphaned"] = float64(cl.OrphanedRequests)
		l["cluster.readmitted"] = float64(cl.ReAdmitted)
		l["cluster.healed"] = float64(cl.HealedReplicas)
		l["cluster.no_holder"] = float64(cl.NoHolder)
		l["cluster.route_imbalance"] = imbalance(cl.Routed)
	}
}

// imbalance returns the busiest member's routed count over the mean.
func imbalance(routed []int) float64 {
	sum, most := 0, 0
	for _, n := range routed {
		sum += n
		most = max(most, n)
	}
	if sum == 0 {
		return 0
	}
	return float64(most) * float64(len(routed)) / float64(sum)
}

// preloadIDs returns the objects the engine preloads: the
// Generator.TopObjects set the striped technique's build places.
func preloadIDs(cfg sched.Config) ([]int, error) {
	n := cfg.PreloadTop
	if n == 0 {
		n = cfg.DefaultPreload()
	}
	// TopObjects depends only on the catalog size, so one station and
	// the geometric table stand in for the workload's own generator.
	gen, err := wl.NewGenerator(rng.NewSource(cfg.Seed), cfg.Objects, cfg.DistMean, 1)
	if err != nil {
		return nil, err
	}
	return gen.TopObjects(n), nil
}

// replayPreload places ids on a bare core.Store the way the striped
// technique's build does — NewStore, Reserve, Place until the first
// object that does not fit — and returns how many were placed.
func replayPreload(cfg sched.Config, ids []int) (int, error) {
	layout, err := core.NewLayout(cfg.D, cfg.K)
	if err != nil {
		return 0, err
	}
	store, err := core.NewStore(layout, cfg.CapacityFragments)
	if err != nil {
		return 0, err
	}
	store.Reserve(cfg.Objects)
	placed := 0
	for _, id := range ids {
		if _, err := store.Place(id, cfg.Degree(id), cfg.Subobjects); err != nil {
			break
		}
		placed++
	}
	return placed, nil
}

// eventLog consumes an engine's trace.  It counts the window's events
// and pairs each station's request with its admission, which gives the
// startup-latency distribution the Result keeps only as a mean.
type eventLog struct {
	inWindow  bool
	requested []int // station -> interval of its outstanding request
	waits     []int // wait in intervals -> admissions in the window
	requests  int
	admits    int
	completes int
	evictions int
}

func newEventLog(stations int) *eventLog {
	return &eventLog{requested: make([]int, stations)}
}

func (l *eventLog) observe(ev sched.Event) {
	if ev.Kind == sched.EvRequest {
		l.requested[ev.Station] = ev.Interval
	}
	if !l.inWindow {
		return
	}
	switch ev.Kind {
	case sched.EvRequest:
		l.requests++
	case sched.EvAdmit:
		wait := ev.Interval - l.requested[ev.Station]
		for len(l.waits) <= wait {
			l.waits = append(l.waits, 0)
		}
		l.waits[wait]++
		l.admits++
	case sched.EvComplete:
		l.completes++
	case sched.EvEvict:
		l.evictions++
	}
}

// waitQuantile returns the nearest-rank q-quantile of the window's
// admission waits, in intervals.
func (l *eventLog) waitQuantile(q float64) float64 {
	rank := max(int(math.Ceil(q*float64(l.admits))), 1)
	seen := 0
	for wait, n := range l.waits {
		if seen += n; seen >= rank {
			return float64(wait)
		}
	}
	return 0
}

// problems cross-checks the trace against the Result: the tracer must
// see every request, admission and completion the engine counted.
func (l *eventLog) problems(res sched.Result) []string {
	if l.requests == res.Requests && l.admits == res.Latency.N() && l.completes == res.Displays {
		return nil
	}
	return []string{fmt.Sprintf("trace saw %d requests, %d admissions, %d completions; the Result counted %d, %d, %d",
		l.requests, l.admits, l.completes, res.Requests, res.Latency.N(), res.Displays)}
}
