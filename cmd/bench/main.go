// Command bench is the same-host performance gate.  It runs the
// benchmark that BENCHMARK.json declares on a base commit and on the
// working tree and exits 1 when any run fails its output checks, or
// when, on any workload:
//
//   - a simulated counter of one traced run per side differs: the
//     exact half of the gate, since a seeded run counts the same
//     admissions, completions, placements and the like on any host;
//   - the working tree's median of an end-to-end metric, over
//     alternating pairs of untraced runs on one host, is worse than
//     the base's by more than that metric's bound.
//
// The allocation and collection counts of the traced runs are printed
// beside the counters but do not fail the gate.  Run it from inside
// the repository:
//
//	go run ./cmd/bench
//
// The base is HEAD when tracked files differ from it and HEAD~1
// otherwise, so a clean checkout gates its last commit against the
// parent.  The base is checked out with `git worktree add --detach`
// under .bench_build/ and removed again afterwards.  Each side runs
// `bash perfbench/run.sh --workload W --seconds 1 --trace 1` once and
// `bash perfbench/run.sh --workload W --seconds 2 --trace 0` per pair
// from its own root, which builds the benchmark from that side's
// sources.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// pairs is the number of base/working-tree run pairs per workload.
// Which side runs first alternates from pair to pair, so a drift in
// host speed over the session lands on both sides alike.
const pairs = 10

// simulated lists the per-layer metrics a seeded run simulates rather
// than times: they must not differ between the sides.
var simulated = []string{
	"sched.requests", "sched.admits", "sched.completes", "sched.coalescings",
	"sched.queue_p50", "sched.queue_p99", "sched.startup_p50_s", "sched.startup_p99_s",
	"sched.disk_busy", "sched.active_mean",
	"core.places", "core.evictions",
	"tertiary.materializations", "tertiary.busy", "tertiary.starved",
	"cache.served", "cache.followers", "cache.hit_rate",
	"cluster.failed_over", "cluster.orphaned", "cluster.readmitted",
	"cluster.healed", "cluster.no_holder", "cluster.route_imbalance",
	"bench.unserved_frac",
}

// allocation lists the per-layer counts that depend on the Go runtime
// as well as on the simulation: printed, never gated.
var allocation = []string{"sched.build_mallocs", "sched.run_mallocs", "sched.gc_cycles"}

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// summary is the JSON line a perfbench run ends with.
type summary struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type side struct{ name, dir string }

func main() {
	if err := gate(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func gate() error {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %v", err)
	}
	dirty, err := git(root, "status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return err
	}
	base := "HEAD~1"
	if dirty != "" {
		base = "HEAD"
	}
	rev, err := git(root, "rev-parse", "--short", base)
	if err != nil {
		return err
	}

	wt := filepath.Join(root, ".bench_build", "base")
	// A worktree left by an interrupted run is removed first; without
	// one this fails, which is the usual case.
	_, _ = git(root, "worktree", "remove", "--force", wt)
	if _, err := git(root, "worktree", "add", "--detach", wt, rev); err != nil {
		return err
	}
	defer func() {
		if _, err := git(root, "worktree", "remove", "--force", wt); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}()
	fmt.Printf("bench: working tree against %s (%s), %d pairs per workload\n", base, rev, pairs)

	var failures []string
	for _, w := range sp.Workloads {
		runs := map[string][]summary{}
		// run runs one side and books an incorrect run as a failure.
		run := func(s side, seconds, trace string) (summary, error) {
			sum, err := perfbench(s.dir, w.Name, seconds, trace)
			if err != nil {
				return summary{}, fmt.Errorf("%s on %s: %v", w.Name, s.name, err)
			}
			if !sum.Correct || sum.Failed > 0 {
				failures = append(failures, fmt.Sprintf("%s: a %s run failed %d output checks", w.Name, s.name, sum.Failed))
			}
			return sum, nil
		}
		baseRun, err := run(side{"base", wt}, "1", "1")
		if err != nil {
			return err
		}
		changeRun, err := run(side{"change", root}, "1", "1")
		if err != nil {
			return err
		}
		fmt.Printf("\n%s\n", w.Name)
		same := 0
		for _, name := range simulated {
			if b, c := baseRun.Metrics[name].Value, changeRun.Metrics[name].Value; b != c {
				failures = append(failures, fmt.Sprintf("%s: counter %s is %.6g against base %.6g", w.Name, name, c, b))
				fmt.Printf("  %-26s base %14.6g  change %14.6g  DIFFERS\n", name, b, c)
			} else {
				same++
			}
		}
		fmt.Printf("  %d of %d simulated counters identical\n", same, len(simulated))
		for _, name := range allocation {
			b, c := baseRun.Metrics[name].Value, changeRun.Metrics[name].Value
			fmt.Printf("  %-26s base %14.6g  change %14.6g  not gated\n", name, b, c)
		}
		order := [2]side{{"base", wt}, {"change", root}}
		for i := 0; i < pairs; i++ {
			for _, s := range order {
				sum, err := run(s, "2", "0")
				if err != nil {
					return err
				}
				runs[s.name] = append(runs[s.name], sum)
			}
			order[0], order[1] = order[1], order[0]
		}
		for _, m := range sp.EndToEnd {
			b, c := median(runs["base"], m.Name), median(runs["change"], m.Name)
			// worse is the relative change in the metric's bad
			// direction; 0/0 is NaN and never exceeds a bound.
			worse := (c - b) / math.Abs(b)
			if m.Better == "higher" {
				worse = (b - c) / math.Abs(b)
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "WORSE"
				failures = append(failures, fmt.Sprintf("%s: %s median %.6g against base %.6g, %.1f%% worse, bound %.0f%%",
					w.Name, m.Name, c, b, 100*worse, 100*m.Bound))
			}
			fmt.Printf("  %-18s base %14.6g  change %14.6g  %+7.1f%% worse  bound %3.0f%%  %s\n",
				m.Name, b, c, 100*worse, 100*m.Bound, verdict)
		}
	}
	if len(failures) > 0 {
		fmt.Println()
		for _, f := range failures {
			fmt.Println("FAIL", f)
		}
		return fmt.Errorf("%d check(s) failed against %s", len(failures), rev)
	}
	fmt.Printf("\nbench: every metric within its bound against %s\n", rev)
	return nil
}

// perfbench runs one workload from the checkout at dir and returns the
// summary on the last line of its output.
func perfbench(dir, workload, seconds, trace string) (summary, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload, "--seconds", seconds, "--trace", trace)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return summary{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		return summary{}, fmt.Errorf("summary line: %v", err)
	}
	return s, nil
}

// median returns the median of metric name over runs.
func median(runs []summary, name string) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.Metrics[name].Value
	}
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// git runs git in dir (the current directory when empty) and returns
// its trimmed standard output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}
