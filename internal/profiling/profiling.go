// Package profiling wires the standard runtime/pprof collectors into
// the command-line tools.  Both binaries expose -cpuprofile and
// -memprofile; the profiles drove the hot-path work on the interval
// engines (see DESIGN.md, "Performance model") and keep that loop
// repeatable:
//
//	sweep -scale quick -cpuprofile cpu.prof
//	go tool pprof cpu.prof
//
// A profiled run executes exactly the code an unprofiled one does.
// Each interval phase of an engine is its own method, so a profile
// splits time by phase through function frames, not labels: the
// technique's finishDue, stepTertiary, admit, coalesce and
// degradedScan under its interval, and the cache tier's
// finishFollowers under the engine's step:
//
//	go tool pprof -peek 'interval$|step$' cpu.prof
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins the profiles selected by the (possibly empty) file
// paths and returns a stop function that must run before the process
// exits; it finishes the CPU profile and writes the heap profile.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		return nil
	}, nil
}
