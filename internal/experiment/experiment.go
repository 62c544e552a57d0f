// Package experiment reproduces the paper's evaluation (§4): the
// Figure 8 throughput curves, the Table 4 improvement matrix, and the
// ablations DESIGN.md calls out (stride extremes, fragment size,
// mixed media, tertiary tape layout).
package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
	// the quick-scale tables: 50 disks, 40 objects, same structure.
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

// parallel runs f(i) for every i < n on a pool of GOMAXPROCS
// goroutines, handing out indices in ascending order, and returns the
// error of the lowest failing index (nil when none fails).  Each f(i)
// writes only its own result slots, so the output is independent of
// scheduling: the experiments' simulations are deterministic per seed
// regardless of parallelism.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Sweep runs the Figure 8 station sweep (nil stations means the
// paper's 1..256) for every mean and every technique of specs (nil
// means the paper's striped/VDR pair), with opts applied to every run
// (nil is the paper's setup), and returns the points per mean.  Every
// (mean, station, technique) run is one job on the parallel pool and
// writes its own element of its point's Runs slice, so the results
// are deterministic per seed whatever the worker count.
func Sweep(scale Scale, means []float64, stations []int, seed uint64, specs []TechSpec, opts *Options) (map[float64][]Point, error) {
	if len(stations) == 0 {
		stations = workload.PaperStations
	}
	if len(specs) == 0 {
		specs = []TechSpec{{Key: TechStriped}, {Key: TechVDR}} // the paper's pair
	}
	labels := make([]string, len(specs))
	for i, s := range specs {
		labels[i] = s.Label()
	}
	byMean := make(map[float64][]Point, len(means))
	for _, mean := range means {
		pts := make([]Point, len(stations))
		for i, st := range stations {
			pts[i] = Point{Stations: st, Techniques: labels, Runs: make([]sched.Result, len(specs))}
		}
		byMean[mean] = pts
	}
	// Job i runs technique i%len(specs) at station (i/len(specs))%len(stations)
	// of means[i/(len(stations)*len(specs))] and writes only that Runs slot;
	// a point's techniques are separate jobs, so no point serializes a sweep.
	err := parallel(len(means)*len(stations)*len(specs), func(i int) error {
		mean, t := means[i/(len(stations)*len(specs))], i%len(specs)
		p := &byMean[mean][i/len(specs)%len(stations)]
		cfg := BaseConfig(scale, p.Stations, mean, seed)
		opts.apply(&cfg)
		e, _, err := sched.NewEngineFor(specs[t].Key, cfg, specs[t].Stride)
		if err != nil {
			return err
		}
		p.Runs[t] = e.Run()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return byMean, nil
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

// Table4Caption is the paper's caption, printed above Table 4.
const Table4Caption = "Table 4: percentage improvement in throughput (displays per hour)\n" +
	"with simple striping as compared to virtual data replication."

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

// Starved returns the starved materializations summed over a sweep's
// runs — what cmd/sweep uses to warn loudly (on stderr) when a
// configuration livelocked at the Place retry cap instead of silently
// delivering zero throughput.
func Starved(points []Point) int {
	n := 0
	for _, p := range points {
		for _, r := range p.Runs {
			n += r.StarvedMaterializations
		}
	}
	return n
}
