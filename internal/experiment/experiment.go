// Package experiment reproduces the paper's evaluation (§4): the
// Figure 8 throughput curves, the Table 4 improvement matrix, and the
// ablations DESIGN.md calls out (stride extremes, fragment size,
// mixed media, tertiary tape layout).
package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/metrics"
	"github.com/mmsim/staggered/internal/sched"
	"github.com/mmsim/staggered/internal/tertiary"
	"github.com/mmsim/staggered/internal/workload"
)

// Options extends a sweep beyond the paper's clean-room runs: a fault
// plan injected into every configuration, the eviction-pressure
// fallback for exact-fit farms, and the workload and cache-tier
// extensions.  The zero value is the paper's setup.
type Options struct {
	Faults           *fault.Plan
	EvictionPressure bool
	// Cache turns the memory tier on for every run; ZipfSkew and
	// ArrivalsPerHour reshape the workload (see sched.Config).
	Cache           *cache.Spec
	ZipfSkew        float64
	ArrivalsPerHour float64
}

// apply copies the options onto one run's configuration.
func (o *Options) apply(cfg *sched.Config) {
	if o == nil {
		return
	}
	cfg.Faults = o.Faults
	cfg.EvictionPressure = o.EvictionPressure
	cfg.Cache = o.Cache
	cfg.ZipfSkew = o.ZipfSkew
	cfg.ArrivalsPerHour = o.ArrivalsPerHour
}

// Scale selects the experiment fidelity.
type Scale int

const (
	// Full is the paper's Table 3 configuration: 1000 disks, 2000
	// objects, 13.4 simulated hours per run.
	Full Scale = iota
	// Quick is a proportionally reduced configuration for tests and
	// -short benchmarks: 50 disks, 40 objects, same structure.
	Quick
)

// BaseConfig returns the simulation configuration for one run at the
// given scale.
func BaseConfig(scale Scale, stations int, mean float64, seed uint64) sched.Config {
	if scale == Full {
		return sched.Table3Config(stations, mean, seed)
	}
	return sched.Config{
		D:                 50,
		K:                 5,
		CapacityFragments: 60,
		Objects:           40,
		Subobjects:        30,
		M:                 5,
		BDisk:             20e6,
		FragmentBytes:     1512000,
		Tertiary:          tertiary.Table3,
		TapeLayout:        tertiary.DiskMatched,
		Stations:          stations,
		DistMean:          mean,
		Seed:              seed,
		WarmupIntervals:   600,
		MeasureIntervals:  3000,
	}
}

// Technique CLI keys, re-exported from the sched registry for sweep
// callers.
const (
	TechStriped   = "striped"
	TechStaggered = "staggered"
	TechVDR       = "vdr"
)

// TechSpec selects one registered technique for a sweep, optionally
// with a stride argument (0 means the technique default).
type TechSpec struct {
	Key    string
	Stride int
}

// Label is the stable identifier a sweep uses for this technique's
// column: the CLI key, stride-qualified when one is set.
func (s TechSpec) Label() string {
	if s.Stride > 0 {
		return fmt.Sprintf("%s(k=%d)", s.Key, s.Stride)
	}
	return s.Key
}

// DefaultTechniques is the paper's Figure 8 pair: simple striping vs
// the virtual-data-replication baseline.
func DefaultTechniques() []TechSpec {
	return []TechSpec{{Key: TechStriped}, {Key: TechVDR}}
}

// Point is one x-position of a Figure 8 graph: every swept technique
// at the same station count.  Techniques holds the sweep labels
// (TechSpec.Label) and Runs the corresponding results, index-aligned.
type Point struct {
	Stations   int
	Techniques []string
	Runs       []sched.Result
}

// Result returns the run labelled label and whether it is present.
func (p Point) Result(label string) (metrics.Run, bool) {
	for i, l := range p.Techniques {
		if l == label {
			return p.Runs[i], true
		}
	}
	return metrics.Run{}, false
}

// Striped returns the simple-striping run of this point (zero when
// the sweep did not include it).
func (p Point) Striped() metrics.Run {
	r, _ := p.Result(TechStriped)
	return r
}

// VDR returns the virtual-data-replication run of this point (zero
// when the sweep did not include it).
func (p Point) VDR() metrics.Run {
	r, _ := p.Result(TechVDR)
	return r
}

// Improvement returns the Table 4 quantity for this point: the
// throughput improvement of simple striping over the baseline.
func (p Point) Improvement() float64 { return metrics.Improvement(p.Striped(), p.VDR()) }

// job is one engine run of one sweep point: the unit of work the
// pool schedules.  Splitting the techniques of a point into separate
// jobs shortens the critical path of a sweep — the runs of the same
// station count no longer serialize.
type job struct {
	mean float64
	idx  int // index into the stations slice
	tech int // index into the technique specs
}

// runSweep executes every (mean, station, technique) combination on a
// worker pool sized to GOMAXPROCS and assembles the per-mean point
// slices.  Each job writes its own element of its own point's Runs
// slice, so workers never contend and the result is independent of
// scheduling order: the output is deterministic per seed regardless
// of parallelism.
func runSweep(scale Scale, means []float64, stations []int, seed uint64, specs []TechSpec, opts *Options) (map[float64][]Point, error) {
	if len(stations) == 0 {
		stations = workload.PaperStations
	}
	if len(specs) == 0 {
		specs = DefaultTechniques()
	}
	labels := make([]string, len(specs))
	for i, s := range specs {
		labels[i] = s.Label()
	}
	byMean := make(map[float64][]Point, len(means))
	jobs := make(chan job, len(specs)*len(means)*len(stations))
	for _, mean := range means {
		pts := make([]Point, len(stations))
		for i, st := range stations {
			pts[i].Stations = st
			pts[i].Techniques = labels
			pts[i].Runs = make([]sched.Result, len(specs))
		}
		byMean[mean] = pts
		for i := range stations {
			for t := range specs {
				jobs <- job{mean: mean, idx: i, tech: t}
			}
		}
	}
	close(jobs)

	workers := runtime.GOMAXPROCS(0)
	if n := cap(jobs); workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				p := &byMean[j.mean][j.idx]
				cfg := BaseConfig(scale, p.Stations, j.mean, seed)
				opts.apply(&cfg)
				spec := specs[j.tech]
				e, _, err := sched.NewEngineFor(spec.Key, cfg, spec.Stride)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				// Each technique of the same point is a distinct
				// slice element, so the writes never overlap.
				p.Runs[j.tech] = e.Run()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return byMean, nil
}

// Figure8 runs one graph of Figure 8: simple striping vs virtual data
// replication across the station sweep for one access distribution.
// Engine runs execute in parallel on a GOMAXPROCS-sized pool; results
// are deterministic per seed.
func Figure8(scale Scale, mean float64, stations []int, seed uint64) ([]Point, error) {
	return Figure8Techniques(scale, mean, stations, seed, nil)
}

// Figure8Techniques runs one Figure 8 graph for an arbitrary set of
// registered techniques (nil means the paper's default pair).
func Figure8Techniques(scale Scale, mean float64, stations []int, seed uint64, specs []TechSpec) ([]Point, error) {
	return Figure8TechniquesOpts(scale, mean, stations, seed, specs, nil)
}

// Figure8TechniquesOpts is Figure8Techniques with sweep options — the
// entry point cmd/sweep's -faults and -pressure flags use.
func Figure8TechniquesOpts(scale Scale, mean float64, stations []int, seed uint64, specs []TechSpec, opts *Options) ([]Point, error) {
	byMean, err := runSweep(scale, []float64{mean}, stations, seed, specs, opts)
	if err != nil {
		return nil, err
	}
	return byMean[mean], nil
}

// seriesName maps a sweep label to its figure-legend name: the
// paper's short names for the default pair, the engine-reported
// technique name (which carries the stride) for everything else.
func seriesName(label string, run metrics.Run) string {
	switch label {
	case TechStriped:
		return "simple striping"
	case TechVDR:
		return "virtual replication"
	}
	if run.Technique != "" {
		return run.Technique
	}
	return label
}

// Figure8Render formats one graph as text: throughput in displays per
// hour against the number of display stations, one series per swept
// technique.
func Figure8Render(mean float64, points []Point) string {
	var series []metrics.Series
	for _, p := range points {
		for i, label := range p.Techniques {
			name := seriesName(label, p.Runs[i])
			var s *metrics.Series
			for j := range series {
				if series[j].Name == name {
					s = &series[j]
					break
				}
			}
			if s == nil {
				series = append(series, metrics.Series{Name: name, Points: map[int]float64{}})
				s = &series[len(series)-1]
			}
			s.Points[p.Stations] = p.Runs[i].Throughput()
		}
	}
	title := fmt.Sprintf("Figure 8 (%s, geometric mean %v): throughput (displays/hour)",
		workload.MeanLabel(mean), mean)
	return metrics.RenderFigure(title, "stations", series)
}

// Table4 builds the paper's Table 4 from the three Figure 8 graphs:
// percentage improvement in throughput of simple striping over
// virtual data replication at the reported station counts.
func Table4(byMean map[float64][]Point) *metrics.Table {
	rows := []int{16, 64, 128, 256}
	tbl := &metrics.Table{Header: []string{
		"# Display Stations", "10 (highly skewed)", "20 (skewed)", "43.5 (uniform)",
	}}
	for _, st := range rows {
		cells := []string{fmt.Sprintf("%d", st)}
		for _, mean := range workload.PaperMeans {
			cell := "-"
			for _, p := range byMean[mean] {
				if p.Stations == st {
					cell = fmt.Sprintf("%.2f%%", p.Improvement())
				}
			}
			cells = append(cells, cell)
		}
		tbl.AddRow(cells...)
	}
	return tbl
}

// RunAll runs the three distributions of Figure 8 and returns the
// per-mean points (the input to both the figure renderings and
// Table 4).  All three sweeps share one worker pool, so the runs of
// different distributions interleave instead of executing graph by
// graph.
func RunAll(scale Scale, stations []int, seed uint64) (map[float64][]Point, error) {
	return runSweep(scale, workload.PaperMeans, stations, seed, nil, nil)
}

// RunAllTechniques is RunAll for an arbitrary set of registered
// techniques (nil means the paper's default pair).
func RunAllTechniques(scale Scale, stations []int, seed uint64, specs []TechSpec) (map[float64][]Point, error) {
	return runSweep(scale, workload.PaperMeans, stations, seed, specs, nil)
}

// Aggregate merges every run of a sweep's points into one Run
// (metrics.Run.Merge semantics: counters add, utilizations
// window-average) — the sweep-wide totals cmd/sweep reports from.
func Aggregate(points []Point) metrics.Run {
	var agg metrics.Run
	for _, p := range points {
		for _, r := range p.Runs {
			agg.Merge(r)
		}
	}
	return agg
}

// Starved returns the sweep-wide starved-materialization total — what
// cmd/sweep uses to warn loudly (on stderr) when a configuration
// livelocked at the Place retry cap instead of silently delivering
// zero throughput.
func Starved(points []Point) int {
	return Aggregate(points).StarvedMaterializations
}
