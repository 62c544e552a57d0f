// Command sweep regenerates the paper's evaluation: the three graphs
// of Figure 8 (throughput against the number of display stations for
// the highly-skewed, skewed, and uniform access distributions) and
// Table 4 (percentage improvement of simple striping over virtual
// data replication).
//
// Usage:
//
//	sweep                         # full Table 3 scale, all figures + Table 4
//	sweep -scale quick            # reduced scale (seconds instead of minutes)
//	sweep -scale 10x              # scale-mode trajectory up to 10x quick geometry
//	sweep -scale 100x             # scale-mode trajectory up to 100x quick geometry
//	sweep -scale 1000x            # 1000x trajectory (50k disks, 20k stations)
//	sweep -scale 10000x           # 10000x trajectory (500k disks, 200k stations)
//	sweep -dist 20                # one distribution only
//	sweep -stations 16,64,128,256 # restrict the station sweep
//	sweep -csv                    # machine-readable output
//	sweep -technique staggered -k 1  # sweep one registered technique
//	sweep -list-techniques        # show the technique registry
//	sweep -faults 'fail:7@600'    # inject a fault plan into every run
//	sweep -servers 1,2,4 -dispatch popularity  # custom cluster grid (EXPERIMENTS.md E20)
//	sweep -cachemb 256 -batchwindow 8   # memory tier on every run (DESIGN.md §12)
//	sweep -zipf 0.7 -arrivals 6000      # open Zipf workload, each run a 1-server cluster
//
// The flags select one of four modes: -list-techniques, the cluster
// grid (-servers), a scale-mode trajectory (-scale 10x and up), or the
// paper sweep.  A set flag the mode does not read exits 2.  cmd/repro
// prints every EXPERIMENTS.md table, E18–E21 included.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
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
	scaleFlag := flag.String("scale", "full", "experiment scale: full (Table 3), quick, or a scale-mode trajectory (10x, 100x, 1000x)")
	dist := flag.Float64("dist", 0, "run a single distribution mean (10, 20, or 43.5); 0 = all")
	stationsFlag := flag.String("stations", "", "comma-separated station counts; empty = paper sweep 1..256")
	seed := flag.Uint64("seed", 1, "simulation seed")
	csv := flag.Bool("csv", false, "emit CSV instead of text tables")
	techFlag := flag.String("technique", "", "comma-separated technique keys (see -list-techniques); empty = paper pair striped,vdr")
	stride := flag.Int("k", 0, "stride k for the staggered technique (0 = technique default)")
	listTech := flag.Bool("list-techniques", false, "list registered techniques and exit")
	faultsFlag := flag.String("faults", "", "fault plan injected into every run (e.g. 'fail:7@600; slow:3@100-400; tert@0-200; wear:0-9@mttf=500,mttr=50,until=3000')")
	pressure := flag.Bool("pressure", false, "enable eviction pressure for exact-fit farms (DESIGN.md §10)")
	serversFlag := flag.String("servers", "", "comma-separated fleet sizes: run the E20 cluster grid (quick geometry per server, open Zipf θ=1.1) over these sizes")
	dispatchFlag := flag.String("dispatch", "", "restrict the cluster grid to one dispatch policy (roundrobin, leastloaded, popularity)")
	cacheMB := flag.Int("cachemb", 0, "prefix-cache RAM budget in MB (0 = no prefix cache; DESIGN.md §12)")
	batchWindow := flag.Int("batchwindow", 0, "multicast batch window in intervals (0 = no batching)")
	zipfSkew := flag.Float64("zipf", 0, "Zipf popularity skew theta (0 = paper's geometric distribution)")
	arrivals := flag.Float64("arrivals", 0, "open Poisson arrivals per hour, each run a 1-server cluster (0 = closed loop)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	mode := sweepMode(*listTech, *serversFlag, *scaleFlag)
	if bad := unreadFlags(mode, set); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %s mode does not read %s\n", mode, strings.Join(bad, ", "))
		return 2
	}
	if mode == "list" {
		for _, ti := range sched.Techniques() {
			fmt.Printf("%-10s %s — %s\n", ti.Key, ti.Display, ti.Summary)
		}
		return 0
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()
	switch mode {
	case "cluster":
		return runClusterGrid(*serversFlag, *dispatchFlag, *seed, *csv)
	case "scale":
		return runScaleMode(*scaleFlag, *seed, *csv)
	}

	specs, err := parseTechniques(*techFlag, *stride)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 2
	}

	// Every run gets the fault plan, eviction pressure, memory tier and
	// workload flags; unset, they leave the paper's setup as it is.
	plan, err := parseFaults(*faultsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 2
	}
	tier := &cache.Spec{BudgetBytes: int64(*cacheMB) << 20, BatchWindow: *batchWindow}
	edit := func(cfg *sched.Config) {
		cfg.Faults = plan
		cfg.EvictionPressure = *pressure
		cfg.Cache = tier
		cfg.ZipfSkew = *zipfSkew
		cfg.ArrivalsPerHour = *arrivals
	}

	scale := experiment.Full
	switch *scaleFlag {
	case "full":
	case "quick":
		scale = experiment.Quick
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown scale %q\n", *scaleFlag)
		return 2
	}

	stations, err := parseStations(*stationsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 2
	}

	means := workload.PaperMeans
	if *dist != 0 {
		means = []float64{*dist}
	}

	byMean, err := experiment.Sweep(scale, means, stations, *seed, specs, edit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 1
	}
	starved := 0
	for _, mean := range means {
		pts := byMean[mean]
		starved += experiment.Starved(pts)
		if *csv {
			if specs == nil {
				fmt.Print(pointsCSV(mean, pts))
			} else {
				fmt.Print(techniquesCSV(mean, pts))
			}
		} else {
			fmt.Println(experiment.Figure8Render(mean, pts))
		}
	}

	// Table 4 compares the paper pair; it only applies to the
	// default sweep.
	if *dist == 0 && specs == nil {
		tbl := experiment.Table4(byMean)
		fmt.Println(experiment.Table4Caption)
		if *csv {
			fmt.Print(tbl.CSV())
		} else {
			fmt.Println(tbl.String())
		}
	}
	if starved > 0 {
		fmt.Fprint(os.Stderr, starvationWarning(starved, *pressure))
	}
	return 0
}

// starvationWarning is the stderr line of a sweep whose runs starved
// materializations, advising only the remedies it did not already use.
func starvationWarning(starved int, pressure bool) string {
	advice := "raise capacity, add -pressure, or use k >= M"
	if pressure {
		advice = "raise capacity or use k >= M"
	}
	return fmt.Sprintf("sweep: warning: %d materializations starved at the Place retry cap — throughput for those configurations is not meaningful (%s; see DESIGN.md §10)\n",
		starved, advice)
}

// runClusterGrid runs the E20 cluster-scaling grid: the fleet sizes of
// -servers crossed with the dispatch policies
// (restricted by -dispatch when given), at quick per-server geometry
// under an open Zipf θ=1.1 workload (EXPERIMENTS.md E20).
func runClusterGrid(serversFlag, dispatchFlag string, seed uint64, csv bool) int {
	servers, err := parseStations(serversFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: bad -servers: %v\n", err)
		return 2
	}
	policies := cluster.Policies()
	if dispatchFlag != "" {
		if !slices.Contains(policies, dispatchFlag) {
			fmt.Fprintf(os.Stderr, "sweep: unknown dispatch policy %q (have %v)\n", dispatchFlag, policies)
			return 2
		}
		policies = []string{dispatchFlag}
	}
	points, err := experiment.E20Grid(servers, policies, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 1
	}
	if csv {
		fmt.Print(experiment.E20CSV(points))
	} else {
		fmt.Print(experiment.RenderE20(points))
	}
	return 0
}

// parseFaults parses the -faults plan.  Only the paper sweep reads
// it, and that runs no server plan (an open point is a 1-member
// cluster without one), so server: clauses are a usage error.
func parseFaults(s string) (*fault.Plan, error) {
	if s == "" {
		return nil, nil
	}
	plan, err := fault.Parse(s)
	if err != nil {
		return nil, err
	}
	if _, srv := plan.SplitServerScope(); !srv.Empty() {
		return nil, errors.New("server: faults need a server plan, which only ssim -arrivals > 0 runs; no sweep executes one")
	}
	return plan, nil
}

// modeFlags names the flags each mode reads.
var modeFlags = map[string][]string{
	"list":    {"list-techniques"},
	"cluster": {"servers", "dispatch", "seed", "csv", "cpuprofile", "memprofile"},
	"scale":   {"scale", "seed", "csv", "cpuprofile", "memprofile"},
	"paper": {"scale", "dist", "stations", "seed", "csv", "technique", "k", "faults", "pressure",
		"cachemb", "batchwindow", "zipf", "arrivals", "cpuprofile", "memprofile"},
}

// sweepMode returns the mode the flags select: "list", "cluster",
// "scale" or "paper".
func sweepMode(listTech bool, servers, scale string) string {
	switch {
	case listTech:
		return "list"
	case servers != "":
		return "cluster"
	case scaleFactors(scale) != nil:
		return "scale"
	}
	return "paper"
}

// unreadFlags returns, as "-name", each flag of set (the names
// flag.Visit reports) that mode does not read.
func unreadFlags(mode string, set []string) []string {
	var bad []string
	for _, name := range set {
		if !slices.Contains(modeFlags[mode], name) {
			bad = append(bad, "-"+name)
		}
	}
	return bad
}

// scaleFactors returns the factors 1, 2, 5, 10, … up to the ceiling
// of the trajectory scale names, or nil when it names none.
func scaleFactors(scale string) []int {
	ladder := []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}
	ceiling := map[string]int{"10x": 10, "100x": 100, "1000x": 1000, "1000": 1000, "10000x": 10000}[scale]
	if i := slices.Index(ladder, ceiling); i >= 0 {
		return ladder[:i+1]
	}
	return nil
}

// runScaleMode runs the scale-mode trajectory instead of the paper
// figures: quick-geometry configurations grown by successive factors
// up to the requested ceiling, reporting wall-clock cost per point.
func runScaleMode(mode string, seed uint64, csv bool) int {
	points, err := experiment.ScaleSweep(scaleFactors(mode), seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 1
	}
	if csv {
		tbl := &metrics.Table{Header: []string{
			"factor", "disks", "stations", "displays", "wall_seconds", "intervals_per_second", "ns_per_display", "heap_alloc_bytes",
		}}
		for _, p := range points {
			tbl.AddRow(
				fmt.Sprintf("%d", p.Factor),
				fmt.Sprintf("%d", p.D),
				fmt.Sprintf("%d", p.Stations),
				fmt.Sprintf("%d", p.Displays),
				fmt.Sprintf("%.4f", p.WallSeconds),
				fmt.Sprintf("%.0f", p.IntervalsSec),
				fmt.Sprintf("%.0f", p.NsPerDisplay),
				fmt.Sprintf("%d", p.HeapAllocBytes),
			)
		}
		fmt.Print(tbl.CSV())
		return 0
	}
	fmt.Printf("Scale-mode trajectory (%s): quick geometry grown by factor\n", mode)
	fmt.Printf("%7s %7s %9s %9s %9s %13s %13s\n", "factor", "disks", "stations", "displays", "wall(s)", "intervals/s", "ns/display")
	for _, p := range points {
		fmt.Printf("%7d %7d %9d %9d %9.4f %13.0f %13.0f\n",
			p.Factor, p.D, p.Stations, p.Displays, p.WallSeconds, p.IntervalsSec, p.NsPerDisplay)
	}
	return 0
}

func parseStations(s string) ([]int, error) {
	if s == "" {
		return nil, nil // experiment.Sweep defaults to the paper sweep
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad station count %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func pointsCSV(mean float64, pts []experiment.Point) string {
	tbl := &metrics.Table{Header: []string{
		"mean", "stations", "striped_per_hour", "vdr_per_hour", "improvement_pct",
		"striped_latency_s", "vdr_latency_s", "vdr_unique_residents",
	}}
	for _, p := range pts {
		striped, vdr := p.Striped(), p.VDR()
		tbl.AddRow(
			fmt.Sprintf("%v", mean),
			fmt.Sprintf("%d", p.Stations),
			fmt.Sprintf("%.2f", striped.Throughput()),
			fmt.Sprintf("%.2f", vdr.Throughput()),
			fmt.Sprintf("%.2f", p.Improvement()),
			fmt.Sprintf("%.2f", striped.Latency.Mean()),
			fmt.Sprintf("%.2f", vdr.Latency.Mean()),
			fmt.Sprintf("%d", vdr.UniqueResidents),
		)
	}
	return tbl.CSV()
}

// techniquesCSV is the long-form CSV for arbitrary technique
// selections: one row per (point, technique).
func techniquesCSV(mean float64, pts []experiment.Point) string {
	tbl := &metrics.Table{Header: []string{
		"mean", "stations", "technique", "name", "per_hour", "latency_s", "unique_residents",
		"requests", "degraded_hiccups", "aborted_displays", "rejected_degraded", "starved_materializations",
		"served_from_cache", "batched_followers", "cache_hit_bytes", "open_rejected",
	}}
	for _, p := range pts {
		for i, label := range p.Techniques {
			r := p.Runs[i]
			tbl.AddRow(
				fmt.Sprintf("%v", mean),
				fmt.Sprintf("%d", p.Stations),
				label,
				r.Technique,
				fmt.Sprintf("%.2f", r.Throughput()),
				fmt.Sprintf("%.2f", r.Latency.Mean()),
				fmt.Sprintf("%d", r.UniqueResidents),
				fmt.Sprintf("%d", r.Requests),
				fmt.Sprintf("%d", r.DegradedHiccups),
				fmt.Sprintf("%d", r.AbortedDisplays),
				fmt.Sprintf("%d", r.RejectedDegraded),
				fmt.Sprintf("%d", r.StarvedMaterializations),
				fmt.Sprintf("%d", r.ServedFromCache),
				fmt.Sprintf("%d", r.BatchedFollowers),
				fmt.Sprintf("%d", r.CacheHitBytes),
				fmt.Sprintf("%d", r.OpenRejected),
			)
		}
	}
	return tbl.CSV()
}

// parseTechniques turns the -technique flag into sweep specs.  An
// empty flag returns nil, selecting the paper's default pair.
func parseTechniques(s string, stride int) ([]experiment.TechSpec, error) {
	if s == "" {
		if stride != 0 {
			return nil, fmt.Errorf("-k requires -technique staggered")
		}
		return nil, nil
	}
	var specs []experiment.TechSpec
	strideUsed := false
	for _, part := range strings.Split(s, ",") {
		key := strings.TrimSpace(part)
		if _, ok := sched.TechniqueByKey(key); !ok {
			return nil, fmt.Errorf("unknown technique %q (have %s)", key, strings.Join(sched.TechniqueKeys(), ", "))
		}
		spec := experiment.TechSpec{Key: key}
		if key == experiment.TechStaggered {
			spec.Stride = stride
			strideUsed = true
		}
		specs = append(specs, spec)
	}
	if stride != 0 && !strideUsed {
		return nil, fmt.Errorf("-k requires -technique staggered")
	}
	return specs, nil
}
