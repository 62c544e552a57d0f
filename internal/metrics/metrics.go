// Package metrics collects the statistics the paper reports:
// throughput in displays per hour (Figure 8, Table 4), display startup
// latency, device utilization, and hiccup counts, with warm-up
// exclusion and simple table rendering.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Tally accumulates scalar observations.
type Tally struct {
	n          int
	sum, sumSq float64
	min, max   float64
}

// Add records one observation.
func (t *Tally) Add(x float64) {
	if t.n == 0 || x < t.min {
		t.min = x
	}
	if t.n == 0 || x > t.max {
		t.max = x
	}
	t.n++
	t.sum += x
	t.sumSq += x * x
}

// Merge folds another tally's observations into t, as if every
// observation recorded in o had been Added to t: counts, sums, and
// sums of squares add, the extrema combine.  Order-independent up to
// float summation order.
func (t *Tally) Merge(o Tally) {
	if o.n == 0 {
		return
	}
	if t.n == 0 {
		*t = o
		return
	}
	if o.min < t.min {
		t.min = o.min
	}
	if o.max > t.max {
		t.max = o.max
	}
	t.n += o.n
	t.sum += o.sum
	t.sumSq += o.sumSq
}

// N returns the observation count.
func (t *Tally) N() int { return t.n }

// Mean returns the sample mean (0 when empty).
func (t *Tally) Mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}

// Min returns the smallest observation (0 when empty).
func (t *Tally) Min() float64 { return t.min }

// Max returns the largest observation (0 when empty).
func (t *Tally) Max() float64 { return t.max }

// StdDev returns the sample standard deviation (0 for n < 2).
func (t *Tally) StdDev() float64 {
	if t.n < 2 {
		return 0
	}
	mean := t.Mean()
	v := (t.sumSq - float64(t.n)*mean*mean) / float64(t.n-1)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Run holds the end-to-end statistics of one simulation run.
type Run struct {
	Technique string
	Stations  int
	DistMean  float64

	WarmupSeconds  float64
	MeasureSeconds float64

	Displays        int // completed displays in the measurement window
	Materializa     int // completed materializations in the window
	Replications    int // completed replications (VDR only)
	Hiccups         int // delivery continuity violations over the whole run, warm-up included (must be 0)
	Coalescings     int // Algorithm 2 invocations
	TertiaryBusy    float64
	DiskBusy        float64 // mean busy disks (fraction of D)
	UniqueResidents int     // distinct objects on disk at end

	// Degraded-mode counters (zero on a fault-free run).
	Requests                int // station requests arriving in the window
	DegradedHiccups         int // intervals a display rode out a failed/slow disk
	AbortedDisplays         int // displays killed mid-delivery by a fault
	OrphanedDisplays        int // of AbortedDisplays: killed by a whole-server fault
	RejectedDegraded        int // admissions refused because the object is unplayable
	StarvedMaterializations int // materializations abandoned after the Place retry cap

	// Cache-tier counters (zero when the memory tier is disabled).
	ServedFromCache  int   // displays whose start was served from the pinned prefix
	BatchedFollowers int   // displays that shared another display's disk streams
	CacheHitBytes    int64 // prefix bytes served from RAM instead of disk
	OpenRejected     int   // open-system arrivals refused for want of a station

	Latency Tally // admission latency of displays started in the window
}

// Merge folds another run's statistics into r — the aggregation the
// cluster layer and the experiment harness use to report N servers (or
// N runs over the same window) as one Run.  Semantics per field class:
//
//   - Event counters (Displays, Materializa, …, OpenRejected) and the
//     station population add.
//   - Utilization ratios (TertiaryBusy, DiskBusy) combine as averages
//     weighted by each run's MeasureSeconds, so merging a long window
//     with a short one does not overweight the short one's fraction.
//   - The window lengths themselves take the maximum: runs merged
//     under a shared clock overlap rather than concatenate, which
//     keeps Throughput() = aggregate displays over the common window.
//   - The latency tally merges observation-exactly (Tally.Merge).
//   - Technique and DistMean stick when equal and degrade to
//     "mixed" / 0 when the merged runs disagree.
func (r *Run) Merge(o Run) {
	switch {
	case r.Technique == "":
		r.Technique = o.Technique
	case o.Technique != "" && o.Technique != r.Technique:
		r.Technique = "mixed"
	}
	if o.DistMean != r.DistMean {
		r.DistMean = 0
	}
	r.Stations += o.Stations

	wr, wo := r.MeasureSeconds, o.MeasureSeconds
	if wr+wo > 0 {
		r.TertiaryBusy = (r.TertiaryBusy*wr + o.TertiaryBusy*wo) / (wr + wo)
		r.DiskBusy = (r.DiskBusy*wr + o.DiskBusy*wo) / (wr + wo)
	}
	if o.WarmupSeconds > r.WarmupSeconds {
		r.WarmupSeconds = o.WarmupSeconds
	}
	if o.MeasureSeconds > r.MeasureSeconds {
		r.MeasureSeconds = o.MeasureSeconds
	}

	r.Displays += o.Displays
	r.Materializa += o.Materializa
	r.Replications += o.Replications
	r.Hiccups += o.Hiccups
	r.Coalescings += o.Coalescings
	r.UniqueResidents += o.UniqueResidents

	r.Requests += o.Requests
	r.DegradedHiccups += o.DegradedHiccups
	r.AbortedDisplays += o.AbortedDisplays
	r.OrphanedDisplays += o.OrphanedDisplays
	r.RejectedDegraded += o.RejectedDegraded
	r.StarvedMaterializations += o.StarvedMaterializations

	r.ServedFromCache += o.ServedFromCache
	r.BatchedFollowers += o.BatchedFollowers
	r.CacheHitBytes += o.CacheHitBytes
	r.OpenRejected += o.OpenRejected

	r.Latency.Merge(o.Latency)
}

// CacheHitRate returns the fraction of window requests whose startup
// was served from the prefix cache.
func (r Run) CacheHitRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.ServedFromCache) / float64(r.Requests)
}

// Throughput returns displays per hour over the measurement window.
func (r Run) Throughput() float64 {
	if r.MeasureSeconds <= 0 {
		return 0
	}
	return float64(r.Displays) * 3600 / r.MeasureSeconds
}

// Improvement returns the percentage improvement of a over b in
// throughput, the quantity of Table 4.
func Improvement(a, b Run) float64 {
	tb := b.Throughput()
	if tb == 0 {
		return math.Inf(1)
	}
	return (a.Throughput() - tb) / tb * 100
}

// Table renders rows of labelled values as an aligned text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row; it must match the header width.
func (t *Table) AddRow(cells ...string) {
	if len(t.Header) > 0 && len(cells) != len(t.Header) {
		panic(fmt.Sprintf("metrics: row width %d != header width %d", len(cells), len(t.Header)))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(fmt.Sprintf("%-*s", widths[i], c))
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one named curve of a figure: y values indexed by x.
type Series struct {
	Name   string
	Points map[int]float64
}

// RenderFigure renders one or more series sharing integer x values as
// an aligned table, x ascending — the textual equivalent of one graph
// of Figure 8.
func RenderFigure(title, xLabel string, series []Series) string {
	xs := map[int]bool{}
	for _, s := range series {
		for x := range s.Points {
			xs[x] = true
		}
	}
	sorted := make([]int, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Ints(sorted)

	tbl := &Table{Header: append([]string{xLabel}, names(series)...)}
	for _, x := range sorted {
		row := []string{fmt.Sprintf("%d", x)}
		for _, s := range series {
			if y, ok := s.Points[x]; ok {
				row = append(row, fmt.Sprintf("%.1f", y))
			} else {
				row = append(row, "-")
			}
		}
		tbl.AddRow(row...)
	}
	return title + "\n" + tbl.String()
}

func names(series []Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Name
	}
	return out
}
