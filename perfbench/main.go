// Command perfbench is the repository's benchmark.  It runs one named
// workload for a time budget, checks the simulated output of every
// run, prints each metric by name with its unit, and ends with a
// one-line JSON summary.  Run it from the repository root through the
// wrapper that builds it:
//
//	bash perfbench/run.sh --workload paper-table3 --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced runs; --trace 1
// pairs untraced runs with traced ones and reports the per-layer
// metrics.  NOTES.md records why each workload was chosen, which layers
// it exercises, and how steady its numbers are.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of the output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks is the ledger of checked runs: each simulation run is one
// attempted operation, and a run that fails any output check is one
// failed operation.
type checks struct {
	attempted, failed int
	failures          []string
}

// record books one run and the problems its checks found.
func (c *checks) record(problems []string) {
	c.attempted++
	if len(problems) > 0 {
		c.failed++
		c.failures = append(c.failures, problems...)
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed the workload is built from")
	seconds := flag.Float64("seconds", 20, "time budget of the measurement, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics of traced runs")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The engines are sequential.  One P keeps the collector's
	// background work on the simulation's CPU instead of overlapping it
	// by however much of a second CPU the host happens to have free.
	runtime.GOMAXPROCS(1)

	budget := time.Duration(*seconds * float64(time.Second))
	var ck checks
	var ms map[string]metric
	var err error
	if *trace == 0 {
		ms, err = measure(w, *seed, budget, &ck)
	} else {
		ms, err = traced(w, *seed, budget, &ck)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, f := range ck.failures {
		fmt.Printf("check failed: %s\n", f)
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-26s %18.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	line, err := json.Marshal(summary{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// declared is a metric's name and unit as BENCHMARK.json declares them.
type declared struct{ name, unit string }

// metrics reports every declared metric with its unit, taking its value
// from values (0 when absent).
func metrics(decl []declared, values map[string]float64) map[string]metric {
	ms := make(map[string]metric, len(decl))
	for _, d := range decl {
		ms[d.name] = metric{values[d.name], d.unit}
	}
	return ms
}

// median returns the median of xs, 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minimum returns the smallest of xs, 0 when empty.
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// quantile returns the nearest-rank q-quantile of sorted, 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}
