// Command repro prints every table of EXPERIMENTS.md at seed 1, in
// document order, each under the "== <section>" line the document's
// "Regenerate:" lines cite.  It takes no flags or arguments:
//
//	go run ./cmd/repro
//
// TestReproduction pins the output byte for byte in
// internal/experiment/testdata/repro.txt.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/mmsim/staggered/internal/experiment"
)

func main() {
	if flag.Parse(); flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: repro (no flags or arguments)")
		os.Exit(2)
	}
	if err := experiment.Reproduce(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
}
