// Command ssim runs one multimedia-server simulation and reports its
// statistics: throughput in displays per hour, admission latency,
// device utilization, and storage state.
//
// Usage:
//
//	ssim -technique striped -stations 64 -dist 20
//	ssim -technique vdr -stations 256 -dist 43.5
//	ssim -technique staggered -stride 1 -stations 64
//	ssim -scale quick ...            # reduced farm for fast runs
//	ssim -faults 'fail:7@600-1200'   # inject a fault plan
//	ssim -cachemb 256 -batchwindow 8 # enable the memory tier (DESIGN.md §12)
//	ssim -zipf 0.7 -arrivals 6000    # open Zipf Poisson workload
//	ssim -servers 4 -dispatch popularity -zipf 1.1 -arrivals 16000
//	                                 # shared-clock cluster (DESIGN.md §13)
//	ssim -servers 4 -arrivals 6000 -faults 'server:1@2000-3000' -healbudget 2
//	                                 # kill+restart a member, heal replicas (DESIGN.md §14)
//
// A run whose materializations starve at the Place retry cap exits
// nonzero with the typed starvation diagnosis on stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/cluster"
	"github.com/mmsim/staggered/internal/experiment"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/metrics"
	"github.com/mmsim/staggered/internal/profiling"
	"github.com/mmsim/staggered/internal/sched"
	"github.com/mmsim/staggered/internal/workload"
)

func main() {
	os.Exit(run())
}

// run holds the program body so deferred cleanup (the profile
// writers) executes before the process exits.
func run() (code int) {
	technique := flag.String("technique", "striped", "technique key from the registry (see -list-techniques)")
	stations := flag.Int("stations", 64, "number of display stations (closed system)")
	dist := flag.Float64("dist", 20, "geometric access-distribution mean (10, 20, 43.5)")
	stride := flag.Int("stride", 0, "stride k for -technique staggered (0 = technique default)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	scaleFlag := flag.String("scale", "full", "full (Table 3) or quick")
	warmup := flag.Int("warmup", 0, "warm-up intervals (0 = scale default)")
	measure := flag.Int("measure", 0, "measurement intervals (0 = scale default)")
	trace := flag.Int("trace", 0, "print the first N scheduler events")
	faultsFlag := flag.String("faults", "", "fault plan (e.g. 'fail:7@600; slow:3@100-400; tert@0-200; wear:0-9@mttf=500,mttr=50,until=3000')")
	pressure := flag.Bool("pressure", false, "enable eviction pressure for exact-fit farms (DESIGN.md §10)")
	cacheMB := flag.Int("cachemb", 0, "prefix-cache budget in MiB (0 = no prefix cache; DESIGN.md §12)")
	batchWindow := flag.Int("batchwindow", 0, "multicast batch window in intervals (0 = no batching)")
	zipfSkew := flag.Float64("zipf", 0, "Zipf popularity skew theta (0 = geometric -dist catalog)")
	arrivals := flag.Float64("arrivals", 0, "open Poisson arrivals per hour (0 = closed loop)")
	servers := flag.Int("servers", 1, "number of shared-clock servers (>1 requires -arrivals; DESIGN.md §13)")
	dispatch := flag.String("dispatch", "", "cluster dispatch policy: roundrobin, leastloaded, or popularity (default roundrobin)")
	healBudget := flag.Int("healbudget", 0, "replicas the cluster re-creates per healing window after a member kill (0 = no healing; DESIGN.md §14)")
	replicaDepth := flag.Int("replicadepth", 0, "replica-ladder depth multiplier for the cluster placement (0 or 1 = default ladder)")
	listTech := flag.Bool("list-techniques", false, "list registered techniques and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *listTech {
		printTechniques()
		return 0
	}
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if bad := clusterOnlyFlags(*servers, set); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "ssim: %s need -servers > 1\n", strings.Join(bad, ", "))
		return 2
	}

	scale := experiment.Full
	if *scaleFlag == "quick" {
		scale = experiment.Quick
	} else if *scaleFlag != "full" {
		fmt.Fprintf(os.Stderr, "ssim: unknown scale %q\n", *scaleFlag)
		return 2
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssim: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "ssim: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	cfg := experiment.BaseConfig(scale, *stations, *dist, *seed)
	if *warmup > 0 {
		cfg.WarmupIntervals = *warmup
	}
	if *measure > 0 {
		cfg.MeasureIntervals = *measure
	}
	cfg.EvictionPressure = *pressure
	cfg.ZipfSkew = *zipfSkew
	cfg.ArrivalsPerHour = *arrivals
	cfg.Cache = &cache.Spec{BudgetBytes: int64(*cacheMB) << 20, BatchWindow: *batchWindow}
	if *faultsFlag != "" {
		plan, err := fault.Parse(*faultsFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssim: %v\n", err)
			return 2
		}
		if loneServerFaults(*servers, plan) {
			fmt.Fprintln(os.Stderr, "ssim: server: faults need -servers > 1")
			return 2
		}
		cfg.Faults = plan
	}

	if _, ok := sched.TechniqueByKey(*technique); !ok {
		fmt.Fprintf(os.Stderr, "ssim: unknown technique %q\n", *technique)
		printTechniques()
		return 2
	}

	if *servers > 1 {
		// A mixed -faults plan splits by scope: disk and tertiary events
		// run inside every member, server kills and restarts run in the
		// cluster driver.
		var serverPlan *fault.Plan
		if cfg.Faults != nil {
			member, srv := cfg.Faults.SplitServerScope()
			cfg.Faults = nil
			if !member.Empty() {
				cfg.Faults = member
			}
			if !srv.Empty() {
				serverPlan = srv
			}
		}
		return runCluster(cfg, clusterOpts{
			servers:      *servers,
			technique:    *technique,
			stride:       *stride,
			dispatch:     *dispatch,
			serverPlan:   serverPlan,
			healBudget:   *healBudget,
			replicaDepth: *replicaDepth,
		})
	}

	eng, normalized, err := sched.NewEngineFor(*technique, cfg, *stride)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssim: %v\n", err)
		return 1
	}
	installTracer(eng, *trace)
	res, runErr := eng.RunChecked()

	printResult(normalized, res)
	if runErr != nil {
		var sErr *sched.StarvationError
		if errors.As(runErr, &sErr) {
			fmt.Fprintf(os.Stderr, "ssim: %v\n", sErr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "ssim: %v\n", runErr)
		return 1
	}
	return 0
}

// clusterOpts carries the cluster-layer flags into runCluster.
type clusterOpts struct {
	servers      int
	technique    string
	stride       int
	dispatch     string
	serverPlan   *fault.Plan
	healBudget   int
	replicaDepth int
}

// clusterOnlyFlags returns, as "-name", each flag of set (the names
// flag.Visit reports) that only a cluster run reads when servers ≤ 1.
func clusterOnlyFlags(servers int, set []string) []string {
	if servers > 1 {
		return nil
	}
	var bad []string
	for _, name := range set {
		if slices.Contains([]string{"dispatch", "healbudget", "replicadepth"}, name) {
			bad = append(bad, "-"+name)
		}
	}
	return bad
}

// loneServerFaults reports whether plan holds server kills or restarts
// that a run without -servers > 1 has no cluster to execute.
func loneServerFaults(servers int, plan *fault.Plan) bool {
	_, srv := plan.SplitServerScope()
	return servers <= 1 && !srv.Empty()
}

// runCluster runs the shared-clock multi-server simulation and prints
// the merged aggregate followed by one row per member (DESIGN.md §13),
// with the failover and healing ledgers when a server plan ran
// (DESIGN.md §14).
func runCluster(base sched.Config, o clusterOpts) int {
	sim, err := cluster.New(cluster.Config{
		Servers:      o.servers,
		Technique:    o.technique,
		Stride:       o.stride,
		Dispatch:     o.dispatch,
		Base:         base,
		ServerPlan:   o.serverPlan,
		HealBudget:   o.healBudget,
		ReplicaDepth: o.replicaDepth,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssim: %v\n", err)
		return 2
	}
	res, err := sim.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssim: %v\n", err)
		return 1
	}
	fmt.Printf("cluster:              %d servers, %s dispatch\n", o.servers, res.Dispatch)
	printResult(base, res.Aggregate)
	if res.NoHolder > 0 {
		fmt.Printf("no-holder fallbacks:  %d\n", res.NoHolder)
	}
	if res.FailedOver+res.OrphanedRequests+res.LostArrivals > 0 {
		fmt.Printf("failover:             %d re-routed dispatches, %d orphaned requests (%d re-admitted, %d dropped), %d lost arrivals\n",
			res.FailedOver, res.OrphanedRequests, res.ReAdmitted, res.ReAdmitDropped, res.LostArrivals)
	}
	if res.HealedReplicas > 0 {
		fmt.Printf("healing:              %d replicas re-created, %.1f s to redistribute\n",
			res.HealedReplicas, res.RedistributeSeconds)
	}
	fmt.Println()
	for i, r := range res.Servers {
		fmt.Printf("server %-2d             %.2f displays/hour (%d displays, %d routed, %d rejected, disk %.1f%%, tertiary %.1f%%)\n",
			i, r.Throughput(), r.Displays, res.Routed[i], r.OpenRejected, r.DiskBusy*100, r.TertiaryBusy*100)
		if r.OrphanedDisplays > 0 {
			fmt.Printf("                      %d displays orphaned by a kill\n", r.OrphanedDisplays)
		}
	}
	return 0
}

// printTechniques lists the registry, one technique per line.
func printTechniques() {
	for _, ti := range sched.Techniques() {
		fmt.Printf("%-10s %s — %s\n", ti.Key, ti.Display, ti.Summary)
	}
}

// installTracer prints the first n scheduler events.
func installTracer(eng *sched.Engine, n int) {
	if n <= 0 {
		return
	}
	printed := 0
	eng.SetTracer(func(ev sched.Event) {
		if printed < n {
			fmt.Println(ev)
			printed++
		}
	})
}

// popularityLabel names the catalog's popularity for the workload
// line: the Zipf skew θ when one is set, else the geometric mean.
func popularityLabel(zipfSkew, distMean float64) string {
	if zipfSkew > 0 {
		return fmt.Sprintf("Zipf θ=%v", zipfSkew)
	}
	return fmt.Sprintf("%s (geometric mean %v)", workload.MeanLabel(distMean), distMean)
}

func printResult(cfg sched.Config, r metrics.Run) {
	fmt.Printf("technique:            %s\n", r.Technique)
	fmt.Printf("farm:                 %d disks, stride %d, %d-disk degree, %d objects\n",
		cfg.D, cfg.K, cfg.M, cfg.Objects)
	fmt.Printf("workload:             %d stations, %s\n", r.Stations, popularityLabel(cfg.ZipfSkew, r.DistMean))
	fmt.Printf("window:               %.0f s warm-up + %.0f s measured\n",
		r.WarmupSeconds, r.MeasureSeconds)
	fmt.Printf("throughput:           %.2f displays/hour (%d displays)\n",
		r.Throughput(), r.Displays)
	fmt.Printf("admission latency:    mean %.1f s, max %.1f s (n=%d)\n",
		r.Latency.Mean(), r.Latency.Max(), r.Latency.N())
	fmt.Printf("disk utilization:     %.1f%%\n", r.DiskBusy*100)
	fmt.Printf("tertiary utilization: %.1f%% (%d materializations)\n",
		r.TertiaryBusy*100, r.Materializa)
	if r.Replications > 0 {
		fmt.Printf("replications:         %d\n", r.Replications)
	}
	if r.Coalescings > 0 {
		fmt.Printf("coalescings:          %d\n", r.Coalescings)
	}
	fmt.Printf("unique residents:     %d\n", r.UniqueResidents)
	fmt.Printf("hiccups:              %d\n", r.Hiccups)
	if r.DegradedHiccups+r.AbortedDisplays+r.RejectedDegraded+r.StarvedMaterializations > 0 {
		fmt.Printf("degraded mode:        %d hiccups, %d aborted displays, %d rejected admissions, %d starved materializations\n",
			r.DegradedHiccups, r.AbortedDisplays, r.RejectedDegraded, r.StarvedMaterializations)
	}
	if r.ServedFromCache+r.BatchedFollowers > 0 {
		fmt.Printf("memory tier:          %d cache-served starts (hit rate %.3f, %.2f GB), %d batched followers\n",
			r.ServedFromCache, r.CacheHitRate(), float64(r.CacheHitBytes)/(1<<30), r.BatchedFollowers)
	}
	if r.OpenRejected > 0 {
		fmt.Printf("open rejections:      %d arrivals dropped (all stations busy)\n", r.OpenRejected)
	}
}
