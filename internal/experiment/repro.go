package experiment

import (
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/mmsim/staggered/internal/analytic"
	"github.com/mmsim/staggered/internal/core"
	"github.com/mmsim/staggered/internal/diskmodel"
	"github.com/mmsim/staggered/internal/metrics"
	"github.com/mmsim/staggered/internal/sched"
	"github.com/mmsim/staggered/internal/vdisk"
	"github.com/mmsim/staggered/internal/workload"
)

// reproSeed is the seed of every table EXPERIMENTS.md records.
const reproSeed = 1

// sections lists the tables of EXPERIMENTS.md in document order: the
// name its "Regenerate:" lines cite and the function that renders it.
var sections = []struct {
	name   string
	render func() (string, error)
}{
	{"E7", renderE7},
	{"E8", renderE8},
	{"Figure 1", func() (string, error) { return core.Figure1(6) }},
	{"Figure 4", func() (string, error) { return core.Figure4(8) }},
	{"Figure 5", func() (string, error) { return core.Figure5(13) }},
	{"Figure 3", func() (string, error) { return sched.Figure3(6) }},
	{"Figure 2", renderFigure2},
	{"Figure 6", func() (string, error) { return vdisk.Figure6(8) }},
	{"Figure 7", func() (string, error) { return sched.Figure7(3, 3) }},
	{"Figure 8 and Table 4", renderPaperEvaluation},
	{"E13", renderE13},
	{"E14", renderE14},
	{"E15", renderE15},
	{"E16", renderE16},
	{"Seed replication", renderSeedReplication},
	{"DES cross-check", renderDESCrossCheck},
	{"E17", renderE17},
	{"E18", func() (string, error) { p, err := E18(reproSeed); return E18Render(p), err }},
	{"E19", func() (string, error) { p, err := E19(reproSeed); return E19Render(p), err }},
	{"E20", func() (string, error) { p, err := E20(reproSeed); return RenderE20(p), err }},
	{"E21", func() (string, error) { p, err := E21(reproSeed); return RenderE21(p), err }},
}

// Reproduce writes every table of EXPERIMENTS.md at seed 1, in the
// document's order, each under a "== <section>" line and followed by
// a blank line.  The output is deterministic: cmd/repro prints it and
// TestReproduction pins it byte for byte in testdata/repro.txt.
func Reproduce(w io.Writer) error {
	for _, s := range sections {
		body, err := s.render()
		if err != nil {
			return fmt.Errorf("experiment: section %s: %w", s.name, err)
		}
		if _, err := fmt.Fprintf(w, "== %s\n%s\n", s.name, body); err != nil {
			return fmt.Errorf("experiment: writing section %s: %w", s.name, err)
		}
	}
	return nil
}

// table renders rows of cells under a header.
func table(header []string, rows [][]string) string {
	return (&metrics.Table{Header: header, Rows: rows}).String()
}

func ms(seconds float64) string { return fmt.Sprintf("%.2f ms", seconds*1e3) }

// renderE7 prints the §3.1 worked numbers: the Sabre drive, 90 disks
// in 30 clusters, one- and two-cylinder fragments.
func renderE7() (string, error) {
	s := diskmodel.Sabre
	f, err := analytic.FragmentSweep(s, 30, 2)
	if err != nil {
		return "", err
	}
	return table([]string{"quantity", "measured"}, [][]string{
		{"one-cylinder transfer time", ms(s.TransferTime(s.CylinderBytes))},
		{"worst seek + latency (T_switch)", ms(s.TSwitch())},
		{"S(C_i), 1-cylinder fragments", ms(f[0].ServiceTimeSeconds)},
		{"wasted bandwidth, 1-cylinder fragments", fmt.Sprintf("%.1f%%", 100*f[0].WastedFraction)},
		{"S(C_i), 2-cylinder fragments", ms(f[1].ServiceTimeSeconds)},
		{"wasted bandwidth, 2-cylinder fragments", fmt.Sprintf("%.1f%%", 100*f[1].WastedFraction)},
		{"worst-case startup, 30 clusters, 1-cylinder", fmt.Sprintf("%.2f s", f[0].WorstLatencySecs)},
		{"worst-case startup, 30 clusters, 2-cylinder", fmt.Sprintf("%.2f s", f[1].WorstLatencySecs)},
	}), nil
}

// renderE8 prints the §3.2.2 stride analysis: the disks a 100-cylinder
// object (M=4, 25 subobjects) touches on 100 disks, the skew-free rule,
// and the collision delays of k<D and k=D on the Table 3 farm.
func renderE8() (string, error) {
	t3 := sched.Table3Config(1, 20, reproSeed)
	disks := func(k, n int) string { return fmt.Sprintf("%d disks", analytic.UniqueDisksUsed(100, k, 4, n)) }
	return table([]string{"quantity", "measured"}, [][]string{
		{"D=100, M=4, k=1, 100-cylinder object", disks(1, 25)},
		{"same object, k=M", disks(4, 25)},
		{"k=D, 500 subobjects", disks(100, 500)},
		{"skew-free D=1000: k=1, k=7, k=5", fmt.Sprint(analytic.DataSkewFree(1000, 1), analytic.DataSkewFree(1000, 7),
			analytic.DataSkewFree(1000, 5))},
		{"collision delay, k<D vs k=D", fmt.Sprintf("%.1f s vs %.0f s",
			analytic.MaxCollisionDelay(1, t3.D, t3.Subobjects, t3.IntervalSeconds()),
			analytic.MaxCollisionDelay(t3.D, t3.D, t3.Subobjects, t3.IntervalSeconds()))},
	}), nil
}

// renderFigure2 runs the §3.1 four-step disk protocol at the event
// level, 2000 intervals of 5 one-cylinder reads: the interval at the
// worst-case S(C_i) on both drives, then on the Sabre drive sized for
// the mean seek and latency.
func renderFigure2() (string, error) {
	sabre := diskmodel.Sabre
	var rows [][]string
	for _, c := range []sched.MicroConfig{{Disk: sabre}, {Disk: diskmodel.Simulation45GB},
		{Disk: sabre, IntervalSeconds: sabre.SeekAvg + sabre.LatencyAvg + sabre.TransferTime(sabre.CylinderBytes)}} {
		c.FragmentBytes, c.M, c.N, c.Seed = c.Disk.CylinderBytes, 5, 2000, reproSeed
		res, err := sched.RunMicro(c)
		if err != nil {
			return "", err
		}
		label := "worst case "
		if c.IntervalSeconds > 0 {
			label = "mean case "
		}
		rows = append(rows, []string{c.Disk.Name, label + ms(res.IntervalSeconds), fmt.Sprint(c.M * c.N),
			fmt.Sprint(res.Hiccups), ms(res.MeanReadSeconds), ms(res.MaxReadSeconds)})
	}
	return table([]string{"disk", "interval", "I/Os", "hiccups", "mean read", "max read"}, rows), nil
}

// renderPaperEvaluation prints the three full-scale Figure 8 graphs
// and Table 4, as `sweep -scale full` does.
func renderPaperEvaluation() (string, error) {
	byMean, err := Sweep(Full, workload.PaperMeans, nil, reproSeed, nil, nil)
	var b strings.Builder
	for _, mean := range workload.PaperMeans {
		fmt.Fprintln(&b, Figure8Render(mean, byMean[mean]))
	}
	fmt.Fprintf(&b, "%s\n%s", Table4Caption, Table4(byMean))
	return b.String(), err
}

// renderE13 prints the §3.2.4 tape-layout comparison (quick scale).
func renderE13() (string, error) {
	res, err := TertiaryLayoutAblation(reproSeed)
	var rows [][]string
	for _, r := range res {
		rows = append(rows, []string{r.Layout.String(), fmt.Sprintf("%.1f s", r.MaterializeSeconds),
			fmt.Sprintf("%.1f mbps", r.EffectiveBandwidth/1e6), fmt.Sprintf("%.0f%%", 100*r.WastedTimeFraction),
			fmt.Sprintf("%.1f displays/hr", r.ThroughputDisplays)})
	}
	return table([]string{"layout", "one materialization", "effective device bw", "time repositioning",
		"system throughput"}, rows), err
}

// renderE14 prints the stride extremes (quick scale, 16 stations,
// mean 5).
func renderE14() (string, error) {
	res, err := StrideAblation(Quick, 16, 5, reproSeed)
	var rows [][]string
	for _, r := range res {
		rows = append(rows, []string{r.Label, fmt.Sprintf("%.0f/hr", r.Run.Throughput()),
			fmt.Sprintf("%.1f s", r.MeanWaitS), fmt.Sprintf("%.1f s", r.WorstWaitS)})
	}
	return table([]string{"stride", "throughput", "mean wait", "worst wait"}, rows), err
}

// renderE15 prints the fragment-size tradeoff on the Table 3 drive
// with 200 clusters.
func renderE15() (string, error) {
	res, err := FragmentAblation(4)
	var rows [][]string
	for _, r := range res {
		rows = append(rows, []string{fmt.Sprintf("%d-cylinder", r.Cylinders), fmt.Sprintf("%.1f ms", r.ServiceTimeSeconds*1e3),
			fmt.Sprintf("%.2f mbps", r.EffectiveBandwidth/1e6), fmt.Sprintf("%.1f%%", 100*r.WastedFraction),
			fmt.Sprintf("%.1f s", r.WorstLatencySecs)})
	}
	return table([]string{"fragment", "S(C_i)", "effective bw", "wasted", "worst startup"}, rows), err
}

// renderE16 prints the mixed-media contrast: 48 disks, 48 objects at
// 40/60/80 mbps, 40 viewers, geometric mean 8.
func renderE16() (string, error) {
	const stations, mean = 40, 8
	res, err := MixedMediaAblation(stations, mean, reproSeed)
	var rows [][]string
	for _, r := range res {
		rows = append(rows, []string{r.Label, fmt.Sprint(r.Run.Displays), fmt.Sprintf("%.1f s", r.Run.Latency.Mean())})
	}
	return fmt.Sprintf("%d viewers, geometric mean %v\n", stations, mean) +
		table([]string{"scheme", "displays/window", "admission latency"}, rows), err
}

// renderSeedReplication prints each distribution's quick-scale sweep
// at 16 and 64 stations over seeds 1..5: mean ± σ and the worst seed.
func renderSeedReplication() (string, error) {
	var b strings.Builder
	for _, mean := range workload.PaperMeans {
		pts, err := RunReplicated(Quick, mean, []int{16, 64}, []uint64{1, 2, 3, 4, 5})
		if err != nil {
			return "", err
		}
		b.WriteString(RenderReplicated(mean, pts))
	}
	return b.String(), nil
}

// renderDESCrossCheck prints the displays the process-oriented model
// (sched.RunDESValidation) and the interval-quantized striped engine
// complete in the same quick-scale configurations.
func renderDESCrossCheck() (string, error) {
	means, stations := []float64{5, 10, 20}, []int{1, 8, 16, 32, 64}
	rows := make([][]string, len(means)*len(stations))
	err := parallel(len(rows), func(i int) error {
		cfg := BaseConfig(Quick, stations[i%len(stations)], means[i/len(stations)], reproSeed)
		e, _, err := sched.NewEngineFor(TechStriped, cfg, 0)
		if err != nil {
			return err
		}
		engine := e.Run().Displays
		des, err := sched.RunDESValidation(cfg)
		rows[i] = []string{fmt.Sprint(cfg.DistMean), fmt.Sprint(cfg.Stations), fmt.Sprint(engine), fmt.Sprint(des),
			fmt.Sprintf("%.1f%%", 100*math.Abs(float64(des-engine))/math.Max(1, float64(engine)))}
		return err
	})
	return table([]string{"mean", "stations", "interval engine", "DES model", "apart"}, rows), err
}

// renderE17 prints the registered techniques side by side at quick
// scale, mean 20, with staggered striping at stride 1.
func renderE17() (string, error) {
	specs := []TechSpec{{Key: TechStriped}, {Key: TechStaggered, Stride: 1}, {Key: TechVDR}}
	byMean, err := Sweep(Quick, []float64{20}, []int{1, 8, 32}, reproSeed, specs, nil)
	pts := byMean[20]
	return fmt.Sprintf("%s\nstarved materializations: %d\n", Figure8Render(20, pts), Starved(pts)), err
}
