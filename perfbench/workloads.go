package main

import (
	"errors"
	"fmt"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/cluster"
	"github.com/mmsim/staggered/internal/experiment"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/sched"
)

// workload is one simulation the benchmark builds from the seed with
// the repository's public constructors.  Exactly one of engine and
// cluster is set.  NOTES.md says why each workload is in the set.
type workload struct {
	name string
	// tech and stride select the single engine's technique through the
	// registry; engine gives the configuration they are applied to.
	tech   string
	stride int
	engine func(seed uint64) sched.Config

	cluster func(seed uint64) cluster.Config

	// replications is how many seeds one run of the benchmark simulates
	// (0 means 1); the simulated metrics are their means.
	replications int

	// coverage checks that a run entered the layers the workload exists
	// to exercise and bypassed the ones it is meant to bypass.
	coverage func(o outcome) []string
}

var workloads = []*workload{
	{name: "paper-table3", tech: "staggered", stride: 1, engine: paperTable3, coverage: diskOnly},
	{name: "scale-zipf", tech: "striped", engine: scaleZipf, coverage: scaleCoverage},
	{name: "cluster-cache-failover", cluster: clusterFailover, replications: clusterReplications, coverage: clusterCoverage},
}

// seeds returns the seeds one run simulates: the run's own seed, or
// replications seeds derived from it, distinct for distinct run seeds.
func (w *workload) seeds(seed uint64) []uint64 {
	n := max(w.replications, 1)
	s := make([]uint64, n)
	for r := range s {
		s[r] = seed*uint64(n) + uint64(r)
	}
	return s
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// The paper point: paperStations sits near the Figure 8 knee of the
// Table 3 farm under staggered striping with k=1 and geometric
// popularity of mean 20, so the disks are about 90% busy and the
// admission probe does real work.  The window is shorter than Table 3's
// 20,000 + 60,000 intervals, which take about 18 s to simulate: two
// display lengths of warm-up and four of measurement keep one run near
// 4 s, so a run of the benchmark holds several.
const (
	paperStations = 256
	paperWarmup   = 6000
	paperMeasure  = 12000
)

func paperTable3(seed uint64) sched.Config {
	cfg := sched.Table3Config(paperStations, 20, seed)
	cfg.PlaceRetryLimit = sched.DefaultPlaceRetryLimit
	cfg.WarmupIntervals = paperWarmup
	cfg.MeasureIntervals = paperMeasure
	return cfg
}

// The scale point: ScaleConfig(1000) is 50,000 disks, 40,000 objects
// and 20,000 stations under simple striping, over its own window of
// 200 warm-up and 1000 measured intervals.  Its default
// truncated-geometric popularity leaves the farm about 11% busy; Zipf
// over the whole catalog at this skew keeps it at least scaleMinBusy
// busy, so the run measures admission work rather than an idle farm.
const (
	scaleFactor  = 1000
	scaleTheta   = 0.4
	scaleMinBusy = 0.85
)

func scaleZipf(seed uint64) sched.Config {
	cfg := experiment.ScaleConfig(scaleFactor, seed)
	cfg.ZipfSkew = scaleTheta
	return cfg
}

// The cluster point: four members of ScaleConfig(clusterFactor) size,
// each with a prefix cache and a batch window, fed one open Zipf
// stream near the fleet's capacity (the disks about 78% busy; 2.5M
// arrivals an hour overloads them), with enough stations per member
// that no arrival is refused.  Member clusterVictim dies a third
// of the way into the window and restarts cold two thirds of the way
// in, so dispatch, the kill drain, re-admission, healing and tertiary
// staging of the dead member's single-homed objects all run.
//
// The mean startup of one seed is set by a few dozen long waits for
// materialization during the outage, so it varies from seed to seed:
// over 40 seeds its quartiles lie 30% of the median apart.  A run
// therefore simulates clusterReplications seeds and reports their
// means, which brings that spread under a tenth.
const (
	clusterServers         = 4
	clusterVictim          = 1
	clusterFactor          = 100
	clusterTheta           = 1.1
	clusterArrivalsPerHour = 2000000
	clusterStations        = 12000
	clusterCacheMB         = 1024
	clusterBatchWindow     = 8
	clusterHealBudget      = 2
	clusterReplicaDepth    = 2
	clusterReplications    = 16
)

func clusterFailover(seed uint64) cluster.Config {
	base := experiment.ScaleConfig(clusterFactor, seed)
	base.ZipfSkew = clusterTheta
	base.ArrivalsPerHour = clusterArrivalsPerHour
	base.Stations = clusterStations
	base.Cache = &cache.Spec{BudgetBytes: clusterCacheMB << 20, BatchWindow: clusterBatchWindow}
	third := base.MeasureIntervals / 3
	kill := base.WarmupIntervals + third
	return cluster.Config{
		Servers:      clusterServers,
		Technique:    "striped",
		Dispatch:     "popularity",
		Base:         base,
		ServerPlan:   fault.NewPlan().FailServerUntil(clusterVictim, kill, kill+third),
		HealBudget:   clusterHealBudget,
		ReplicaDepth: clusterReplicaDepth,
	}
}

// engineConfig returns the single-engine technique and the workload's
// configuration normalized for it.
func (w *workload) engineConfig(seed uint64) (sched.TechniqueInfo, sched.Config, error) {
	ti, ok := sched.TechniqueByKey(w.tech)
	if !ok {
		return ti, sched.Config{}, fmt.Errorf("unknown technique %q", w.tech)
	}
	cfg, err := ti.Configure(w.engine(seed), w.stride)
	return ti, cfg, err
}

// simulation is one built workload; it runs once.
type simulation struct {
	engine  *sched.Engine
	cluster *cluster.Sim
}

// build constructs the workload's simulation: configuration checks,
// popularity table, preload placement and, for the cluster, the replica
// ladder and member engines.  This is the work setup_s times.
func (w *workload) build(seed uint64) (simulation, error) {
	if w.cluster != nil {
		c, err := cluster.New(w.cluster(seed))
		return simulation{cluster: c}, err
	}
	ti, cfg, err := w.engineConfig(seed)
	if err != nil {
		return simulation{}, err
	}
	e, err := ti.New(cfg)
	return simulation{engine: e}, err
}

// outcome is what one run produced: the Result of the measurement
// window (merged over the members for the cluster) and, for the
// cluster, its own Result.
type outcome struct {
	res     sched.Result
	cluster *cluster.Result
}

// run executes the simulation through its public entry point.  A
// starved materialization is a failed check, not an error: the Result
// stays valid.
func (s simulation) run() (outcome, []string, error) {
	if s.cluster != nil {
		res, err := s.cluster.Run()
		return outcome{res: res.Aggregate, cluster: &res}, nil, err
	}
	res, err := s.engine.RunChecked()
	var starved *sched.StarvationError
	if errors.As(err, &starved) {
		return outcome{res: res}, []string{starved.Error()}, nil
	}
	return outcome{res: res}, nil, err
}

// problems runs the output checks every run must pass, then the
// workload's coverage checks.
func (w *workload) problems(o outcome) []string {
	var p []string
	if o.res.Hiccups != 0 {
		p = append(p, fmt.Sprintf("%d hiccups", o.res.Hiccups))
	}
	if cl := o.cluster; cl != nil {
		if cl.OrphanedRequests != cl.ReAdmitted+cl.ReAdmitDropped {
			p = append(p, fmt.Sprintf("orphan ledger does not balance: %d orphaned, %d re-admitted, %d dropped",
				cl.OrphanedRequests, cl.ReAdmitted, cl.ReAdmitDropped))
		}
		if cl.LostArrivals != 0 {
			p = append(p, fmt.Sprintf("%d arrivals lost", cl.LostArrivals))
		}
	}
	return append(p, w.coverage(o)...)
}

// diskOnly checks the bypass prediction of a workload without a memory
// tier: the cache counters stay zero.
func diskOnly(o outcome) []string {
	if r := o.res; r.ServedFromCache != 0 || r.BatchedFollowers != 0 || r.CacheHitBytes != 0 {
		return []string{fmt.Sprintf("cache tier entered without a cache: %d served, %d followers",
			r.ServedFromCache, r.BatchedFollowers)}
	}
	return nil
}

// scaleCoverage adds the scale point's own predictions: the farm stays
// busy, and the fully preloaded catalog never reaches the tertiary
// device.
func scaleCoverage(o outcome) []string {
	p := diskOnly(o)
	if o.res.DiskBusy < scaleMinBusy {
		p = append(p, fmt.Sprintf("disk busy %.3f below %.2f: the farm went idle", o.res.DiskBusy, scaleMinBusy))
	}
	if o.res.Materializa != 0 {
		p = append(p, fmt.Sprintf("%d materializations on a fully preloaded catalog", o.res.Materializa))
	}
	return p
}

// clusterCoverage checks that the cluster workload entered every layer
// it exists for: the cache tier, tertiary staging, the kill drain and
// re-admission.
func clusterCoverage(o outcome) []string {
	var p []string
	for _, c := range []struct {
		what string
		n    int
	}{
		{"cache-served starts", o.res.ServedFromCache},
		{"materializations", o.res.Materializa},
		{"orphaned requests", o.cluster.OrphanedRequests},
		{"re-admitted requests", o.cluster.ReAdmitted},
	} {
		if c.n <= 0 {
			p = append(p, "no "+c.what)
		}
	}
	return p
}

// unserved returns the window's requests that were not served and the
// requests issued.  Unserved are open rejections (which include orphans
// dropped for want of a station), degraded rejections, aborted displays
// and arrivals lost with every member dead.  An orphan re-admitted on a
// survivor is counted in two members' Requests, and a dropped one in
// OpenRejected, so both come off the issued count once.
func unserved(o outcome) (failed, issued int) {
	r := o.res
	failed = r.OpenRejected + r.RejectedDegraded + r.AbortedDisplays
	issued = r.Requests + r.OpenRejected
	if cl := o.cluster; cl != nil {
		failed += cl.LostArrivals
		issued += cl.LostArrivals - cl.ReAdmitted - cl.ReAdmitDropped
	}
	return failed, issued
}
