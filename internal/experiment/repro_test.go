package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The reproduction artifact: every EXPERIMENTS.md table, byte for
// byte.  Regenerate after a deliberate change of a result with:
//
//	go test ./internal/experiment -run TestReproduction -update-repro

var updateRepro = flag.Bool("update-repro", false, "rewrite testdata/repro.txt from Reproduce")

var reproPath = filepath.Join("testdata", "repro.txt")

// TestReproduction pins Reproduce's whole output, so a one-digit
// change to any table of EXPERIMENTS.md fails it.
func TestReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale Figure 8 and the E18–E21 grids")
	}
	var b bytes.Buffer
	if err := Reproduce(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if *updateRepro {
		if err := os.WriteFile(reproPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(reproPath)
	if err != nil {
		t.Fatalf("missing artifact (run with -update-repro): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s drifts at line %d:\n  pinned:  %s\n  current: %s", reproPath, i+1, w, g)
		}
	}
}

// TestReproductionSectionsDocumented keeps EXPERIMENTS.md and the
// artifact in step: every "== <section>" of testdata/repro.txt is cited
// as `== <section>` by some "Regenerate:" paragraph, and every section
// a "Regenerate:" paragraph cites exists.
func TestReproductionSectionsDocumented(t *testing.T) {
	artifact, err := os.ReadFile(reproPath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	printed := map[string]bool{}
	for _, line := range strings.Split(string(artifact), "\n") {
		if name, ok := strings.CutPrefix(line, "== "); ok {
			printed[name] = true
		}
	}
	cited := map[string]bool{}
	cite := regexp.MustCompile("`== ([^`]+)`")
	for _, para := range strings.Split(string(doc), "\n\n") {
		_, regen, ok := strings.Cut(para, "Regenerate:")
		if !ok {
			continue
		}
		for _, m := range cite.FindAllStringSubmatch(strings.ReplaceAll(regen, "\n", " "), -1) {
			cited[m[1]] = true
		}
	}
	if len(printed) == 0 || len(cited) == 0 {
		t.Fatalf("found %d printed and %d cited sections", len(printed), len(cited))
	}
	for name := range printed {
		if !cited[name] {
			t.Errorf("section %q of %s is cited by no Regenerate: line of EXPERIMENTS.md", name, reproPath)
		}
	}
	for name := range cited {
		if !printed[name] {
			t.Errorf("EXPERIMENTS.md cites section %q, which %s lacks", name, reproPath)
		}
	}
}
