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
//	ssim -zipf 0.7 -arrivals 6000    # open Zipf Poisson workload: a 1-server cluster
//	ssim -servers 4 -dispatch popularity -zipf 1.1 -arrivals 16000
//	                                 # shared-clock cluster (DESIGN.md §13)
//	ssim -servers 4 -arrivals 6000 -faults 'server:1@2000-3000' -healbudget 2
//	                                 # kill+restart a member, heal replicas (DESIGN.md §14)
//
// Only the cluster driver draws open arrivals, so every run with
// -arrivals > 0 is a cluster run of -servers members (1 by default),
// and -servers, -dispatch, -healbudget, -replicadepth and server:
// fault clauses need -arrivals > 0.  A run whose materializations
// starve at the Place retry cap, in any member and warm-up included,
// exits nonzero with the typed starvation diagnosis on stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run holds the program body so deferred cleanup (the profile
// writers) executes before the process exits.  It parses args, writes
// the report to stdout and diagnostics to stderr, and returns the exit
// code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("ssim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	technique := fs.String("technique", "striped", "technique key from the registry (see -list-techniques)")
	stations := fs.Int("stations", 64, "number of display stations (closed loop) or of each server's station pool (open)")
	dist := fs.Float64("dist", 20, "geometric access-distribution mean (10, 20, 43.5)")
	stride := fs.Int("stride", 0, "stride k for -technique staggered (0 = technique default)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	scaleFlag := fs.String("scale", "full", "full (Table 3) or quick")
	warmup := fs.Int("warmup", 0, "warm-up intervals (0 = scale default)")
	measure := fs.Int("measure", 0, "measurement intervals (0 = scale default)")
	trace := fs.Int("trace", 0, "print the first N scheduler events (of every server in a cluster run)")
	faultsFlag := fs.String("faults", "", "fault plan (e.g. 'fail:7@600; slow:3@100-400; tert@0-200; wear:0-9@mttf=500,mttr=50,until=3000')")
	pressure := fs.Bool("pressure", false, "enable eviction pressure for exact-fit farms (DESIGN.md §10)")
	cacheMB := fs.Int("cachemb", 0, "prefix-cache budget in MiB (0 = no prefix cache; DESIGN.md §12)")
	batchWindow := fs.Int("batchwindow", 0, "multicast batch window in intervals (0 = no batching)")
	zipfSkew := fs.Float64("zipf", 0, "Zipf popularity skew theta (0 = geometric -dist catalog)")
	arrivals := fs.Float64("arrivals", 0, "open Poisson arrivals per hour, run as a cluster of -servers (0 = closed loop)")
	servers := fs.Int("servers", 1, "number of shared-clock servers of an open run (needs -arrivals; DESIGN.md §13)")
	dispatch := fs.String("dispatch", "", "cluster dispatch policy: roundrobin, leastloaded, or popularity (default roundrobin)")
	healBudget := fs.Int("healbudget", 0, "replicas the cluster re-creates per healing window after a member kill (0 = no healing; DESIGN.md §14)")
	replicaDepth := fs.Int("replicadepth", 0, "replica-ladder depth multiplier for the cluster placement (0 or 1 = default ladder)")
	listTech := fs.Bool("list-techniques", false, "list registered techniques and exit")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *listTech {
		printTechniques(stdout)
		return 0
	}
	var plan *fault.Plan
	if *faultsFlag != "" {
		var err error
		if plan, err = fault.Parse(*faultsFlag); err != nil {
			fmt.Fprintf(stderr, "ssim: %v\n", err)
			return 2
		}
	}
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if bad := clusterOnly(*arrivals, set, plan); len(bad) > 0 {
		fmt.Fprintf(stderr, "ssim: %s need -arrivals > 0\n", strings.Join(bad, ", "))
		return 2
	}
	if *dispatch != "" && !slices.Contains(cluster.Policies(), *dispatch) {
		fmt.Fprintf(stderr, "ssim: unknown dispatch policy %q (have %v)\n", *dispatch, cluster.Policies())
		return 2
	}

	scale := experiment.Full
	if *scaleFlag == "quick" {
		scale = experiment.Quick
	} else if *scaleFlag != "full" {
		fmt.Fprintf(stderr, "ssim: unknown scale %q\n", *scaleFlag)
		return 2
	}
	ti, ok := sched.TechniqueByKey(*technique)
	if !ok {
		fmt.Fprintf(stderr, "ssim: unknown technique %q\n", *technique)
		printTechniques(stdout)
		return 2
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(stderr, "ssim: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "ssim: %v\n", err)
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
	cfg.Faults = plan
	// The configuration the technique runs, which the report prints.
	if cfg, err = ti.Configure(cfg, *stride); err != nil {
		fmt.Fprintf(stderr, "ssim: %v\n", err)
		return 1
	}

	if *arrivals > 0 {
		// A mixed -faults plan splits by scope: disk and tertiary events
		// run inside every member, server kills and restarts run in the
		// cluster driver.
		ccfg := cluster.Config{Servers: *servers, Technique: *technique, Stride: *stride, Dispatch: *dispatch,
			HealBudget: *healBudget, ReplicaDepth: *replicaDepth}
		cfg.Faults, ccfg.ServerPlan = cfg.Faults.SplitServerScope()
		ccfg.Base = cfg
		return runCluster(stdout, stderr, ccfg, *trace)
	}

	eng, err := ti.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "ssim: %v\n", err)
		return 1
	}
	if *trace > 0 {
		print := eventPrinter(stdout, *trace, false)
		eng.SetTracer(func(ev sched.Event) { print(0, ev) })
	}
	res, runErr := eng.RunChecked()
	printResult(stdout, cfg, res)
	return exitCode(stderr, runErr)
}

// clusterOnly returns what only the cluster driver executes, which a
// closed-loop run (arrivals ≤ 0) builds none of: each flag of set (the
// names flag.Visit reports) among -servers, -dispatch, -healbudget and
// -replicadepth, and "server: faults" when plan holds server kills or
// restarts.
func clusterOnly(arrivals float64, set []string, plan *fault.Plan) []string {
	if arrivals > 0 {
		return nil
	}
	var bad []string
	for _, name := range set {
		if slices.Contains([]string{"servers", "dispatch", "healbudget", "replicadepth"}, name) {
			bad = append(bad, "-"+name)
		}
	}
	if _, srv := plan.SplitServerScope(); !srv.Empty() {
		bad = append(bad, "server: faults")
	}
	return bad
}

// exitCode turns a run's error into the exit code: 0 for none, and 1
// with the error (a *sched.StarvationError, say) on stderr otherwise.
func exitCode(stderr io.Writer, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "ssim: %v\n", err)
	return 1
}

// runCluster runs the open workload on the shared-clock cluster of
// ccfg.Servers members, one included, printing the first trace events
// of its members, and prints the merged aggregate followed by one row
// per member (DESIGN.md §13), with the failover and healing ledgers
// when a server plan ran (DESIGN.md §14).  ccfg.Base is the
// technique's normalized configuration.  A configuration cluster.New
// refuses exits 1, as one the engine build refuses does; like
// RunChecked, it exits 1 when any member starved.
func runCluster(stdout, stderr io.Writer, ccfg cluster.Config, trace int) int {
	sim, err := cluster.New(ccfg)
	if err != nil {
		fmt.Fprintf(stderr, "ssim: %v\n", err)
		return 1
	}
	if trace > 0 {
		sim.SetTracer(eventPrinter(stdout, trace, true))
	}
	res, err := sim.Run()
	if err != nil {
		fmt.Fprintf(stderr, "ssim: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "cluster:              %d servers, %s dispatch\n", ccfg.Servers, res.Dispatch)
	printResult(stdout, ccfg.Base, res.Aggregate)
	if res.NoHolder > 0 {
		fmt.Fprintf(stdout, "no-holder fallbacks:  %d\n", res.NoHolder)
	}
	if res.FailedOver+res.OrphanedRequests+res.LostArrivals > 0 {
		fmt.Fprintf(stdout, "failover:             %d re-routed dispatches, %d orphaned requests (%d re-admitted, %d dropped), %d lost arrivals\n",
			res.FailedOver, res.OrphanedRequests, res.ReAdmitted, res.ReAdmitDropped, res.LostArrivals)
	}
	if res.HealedReplicas > 0 {
		fmt.Fprintf(stdout, "healing:              %d replicas re-created, %.1f s to redistribute\n",
			res.HealedReplicas, res.RedistributeSeconds)
	}
	fmt.Fprintln(stdout)
	for i, r := range res.Servers {
		fmt.Fprintf(stdout, "server %-2d             %.2f displays/hour (%d displays, %d routed, %d rejected, disk %.1f%%, tertiary %.1f%%)\n",
			i, r.Throughput(), r.Displays, res.Routed[i], r.OpenRejected, r.DiskBusy*100, r.TertiaryBusy*100)
		if r.OrphanedDisplays > 0 {
			fmt.Fprintf(stdout, "                      %d displays orphaned by a kill\n", r.OrphanedDisplays)
		}
	}
	return exitCode(stderr, sim.Starvation())
}

// eventPrinter returns a tracer that prints the first n events it is
// handed to w, one a line and tagged with their member when tagged is
// set, and drops the rest.
func eventPrinter(w io.Writer, n int, tagged bool) func(member int, ev sched.Event) {
	printed := 0
	return func(member int, ev sched.Event) {
		if printed == n {
			return
		}
		printed++
		if tagged {
			fmt.Fprintf(w, "server %-2d ", member)
		}
		fmt.Fprintln(w, ev)
	}
}

// printTechniques lists the registry, one technique per line.
func printTechniques(w io.Writer) {
	for _, ti := range sched.Techniques() {
		fmt.Fprintf(w, "%-10s %s — %s\n", ti.Key, ti.Display, ti.Summary)
	}
}

// popularityLabel names the catalog's popularity for the workload
// line: the Zipf skew θ when one is set, else the geometric mean.
func popularityLabel(zipfSkew, distMean float64) string {
	if zipfSkew > 0 {
		return fmt.Sprintf("Zipf θ=%v", zipfSkew)
	}
	return fmt.Sprintf("%s (geometric mean %v)", workload.MeanLabel(distMean), distMean)
}

func printResult(w io.Writer, cfg sched.Config, r metrics.Run) {
	fmt.Fprintf(w, "technique:            %s\n", r.Technique)
	fmt.Fprintf(w, "farm:                 %d disks, stride %d, %d-disk degree, %d objects\n",
		cfg.D, cfg.K, cfg.M, cfg.Objects)
	fmt.Fprintf(w, "workload:             %d stations, %s\n", r.Stations, popularityLabel(cfg.ZipfSkew, r.DistMean))
	fmt.Fprintf(w, "window:               %.0f s warm-up + %.0f s measured\n",
		r.WarmupSeconds, r.MeasureSeconds)
	fmt.Fprintf(w, "throughput:           %.2f displays/hour (%d displays)\n",
		r.Throughput(), r.Displays)
	fmt.Fprintf(w, "admission latency:    mean %.1f s, max %.1f s (n=%d)\n",
		r.Latency.Mean(), r.Latency.Max(), r.Latency.N())
	fmt.Fprintf(w, "disk utilization:     %.1f%%\n", r.DiskBusy*100)
	fmt.Fprintf(w, "tertiary utilization: %.1f%% (%d materializations)\n",
		r.TertiaryBusy*100, r.Materializa)
	if r.Replications > 0 {
		fmt.Fprintf(w, "replications:         %d\n", r.Replications)
	}
	if r.Coalescings > 0 {
		fmt.Fprintf(w, "coalescings:          %d\n", r.Coalescings)
	}
	fmt.Fprintf(w, "unique residents:     %d\n", r.UniqueResidents)
	fmt.Fprintf(w, "hiccups:              %d\n", r.Hiccups)
	if r.DegradedHiccups+r.AbortedDisplays+r.RejectedDegraded+r.StarvedMaterializations > 0 {
		fmt.Fprintf(w, "degraded mode:        %d hiccups, %d aborted displays, %d rejected admissions, %d starved materializations\n",
			r.DegradedHiccups, r.AbortedDisplays, r.RejectedDegraded, r.StarvedMaterializations)
	}
	if r.ServedFromCache+r.BatchedFollowers > 0 {
		fmt.Fprintf(w, "memory tier:          %d cache-served starts (hit rate %.3f, %.2f GB), %d batched followers\n",
			r.ServedFromCache, r.CacheHitRate(), float64(r.CacheHitBytes)/(1<<30), r.BatchedFollowers)
	}
	if r.OpenRejected > 0 {
		fmt.Fprintf(w, "open rejections:      %d arrivals dropped (all stations busy)\n", r.OpenRejected)
	}
}
