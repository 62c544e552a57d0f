package sched

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Golden pin for the first-class staggered technique: small strides
// built through the registry path (Configure + generic Engine), which
// the 49-config sweep never reaches.  Regenerate with:
//
//	go test ./internal/sched -run TestGoldenStaggered -update-golden-staggered

var updateGoldenStaggered = flag.Bool("update-golden-staggered", false,
	"rewrite testdata/golden_staggered.txt from the current engine")

// staggeredGoldenConfigs enumerates the pinned staggered runs: both
// small strides across a low- and a high-load point of two
// distributions on the quick geometry.
func staggeredGoldenConfigs() []struct {
	name   string
	cfg    Config
	stride int
} {
	var out []struct {
		name   string
		cfg    Config
		stride int
	}
	for _, k := range []int{1, 2} {
		for _, mean := range []float64{10, 20} {
			for _, st := range []int{8, 32} {
				cfg := smallConfig(st, mean)
				out = append(out, struct {
					name   string
					cfg    Config
					stride int
				}{fmt.Sprintf("staggered-k%d-mean%v-st%d", k, mean, st), cfg, k})
			}
		}
	}
	return out
}

// staggeredGoldenDump renders the staggered dump, optionally mutating
// each configuration first (see TestEmptyFaultPlanGolden).
func staggeredGoldenDump(t *testing.T, mutate func(*Config)) string {
	t.Helper()
	var b strings.Builder
	for _, gc := range staggeredGoldenConfigs() {
		if mutate != nil {
			mutate(&gc.cfg)
		}
		e, _, err := NewEngineFor("staggered", gc.cfg, gc.stride)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		fmt.Fprintf(&b, "%s: %+v\n", gc.name, legacyView(e.Run()))
	}
	return b.String()
}

func TestGoldenStaggered(t *testing.T) {
	if testing.Short() {
		t.Skip("staggered golden sweep is not short")
	}
	checkGoldenDump(t, "golden_staggered.txt", staggeredGoldenDump(t, nil), *updateGoldenStaggered, "update-golden-staggered")
}

// TestStaggeredDeterministic pins run-to-run reproducibility of the
// registry-built staggered engine at a stride the pre-registry tests
// never exercised.
func TestStaggeredDeterministic(t *testing.T) {
	cfg := smallConfig(32, 20)
	first, _, err := NewEngineFor("staggered", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := NewEngineFor("staggered", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := first.Run(), second.Run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n  first:  %+v\n  second: %+v", a, b)
	}
}

// readGoldenLines parses testdata/golden_sweep.txt into name -> line.
func readGoldenLines(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden_sweep.txt"))
	if err != nil {
		t.Fatalf("missing golden dump: %v", err)
	}
	lines := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		name, _, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		lines[name] = line
	}
	return lines
}

// TestRegistryNamesMatchGolden asserts the registry's display-name
// constants are the names the golden dumps record — technique naming
// has exactly one source of truth.
func TestRegistryNamesMatchGolden(t *testing.T) {
	seen := map[string]bool{}
	for name, line := range readGoldenLines(t) {
		_, rest, ok := strings.Cut(line, "{Technique:")
		if !ok {
			t.Fatalf("golden line %q has no Technique field", name)
		}
		tech, _, ok := strings.Cut(rest, " Stations:")
		if !ok {
			t.Fatalf("golden line %q has no Stations field", name)
		}
		seen[tech] = true
	}
	want := map[string]bool{
		SimpleStripingName: true,
		VDRName:            true,
		fmt.Sprintf("%s (k=1)", StaggeredStripingName): true,
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("golden technique names %v do not match registry constants %v", seen, want)
	}
	// The same names must come out of the registry's metadata.
	displays := map[string]bool{}
	for _, ti := range Techniques() {
		displays[ti.Display] = true
	}
	for _, d := range []string{SimpleStripingName, StaggeredStripingName, VDRName} {
		if !displays[d] {
			t.Errorf("registry is missing display name %q", d)
		}
	}
}

// TestTechniqueRegistry pins the registry's keys, lookup, and
// Configure normalization rules.
func TestTechniqueRegistry(t *testing.T) {
	if got, want := TechniqueKeys(), []string{"striped", "staggered", "vdr"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("technique keys = %v, want %v", got, want)
	}
	if _, ok := TechniqueByKey("nope"); ok {
		t.Error("unknown key resolved")
	}
	cfg := smallConfig(8, 20)

	st, _ := TechniqueByKey("striped")
	if _, err := st.Configure(cfg, 3); err == nil {
		t.Error("striped accepted a stride other than M")
	}
	norm, err := st.Configure(cfg, 0)
	if err != nil || norm.K != cfg.M {
		t.Errorf("striped Configure: K=%d err=%v, want K=M=%d", norm.K, err, cfg.M)
	}

	sg, _ := TechniqueByKey("staggered")
	norm, err = sg.Configure(cfg, 0)
	if err != nil || norm.K != 1 || !sg.factory().(*stripedTech).staggered {
		t.Errorf("staggered Configure default: %+v err=%v, want K=1 with Algorithms 1+2", norm, err)
	}
	if _, err := sg.Configure(cfg, cfg.D+1); err == nil {
		t.Error("staggered accepted stride beyond D")
	}

	vd, _ := TechniqueByKey("vdr")
	if _, err := vd.Configure(cfg, 2); err == nil {
		t.Error("vdr accepted a stride")
	}
	if _, _, err := NewEngineFor("nope", cfg, 0); err == nil {
		t.Error("NewEngineFor accepted an unknown key")
	}
	e, norm, err := NewEngineFor("staggered", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if norm.K != 2 {
		t.Errorf("normalized K = %d, want 2", norm.K)
	}
	if got, want := e.Snapshot().Technique, fmt.Sprintf("%s (k=2)", StaggeredStripingName); got != want {
		t.Errorf("Snapshot().Technique = %q, want %q", got, want)
	}
}
