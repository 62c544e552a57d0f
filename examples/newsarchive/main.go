// Newsarchive: a tape-backed news-footage archive.  The database is
// ten times larger than the disk farm, access is close to uniform, so
// the tertiary device and the replacement policy dominate — the
// regime of the right-hand graph of the paper's Figure 8.  The
// example also shows why §3.2.4 wants the tape recorded in
// disk-delivery order.
package main

import (
	"fmt"
	"log"

	mmis "github.com/mmsim/staggered"
)

func main() {
	// §3.2.4: the cost of a layout mismatch between tape and disks.
	cfg := mmis.Table3Config(8, 40, 1)
	cfg.D, cfg.K, cfg.M = 50, 5, 5
	cfg.CapacityFragments, cfg.Objects, cfg.Subobjects = 60, 40, 30
	cfg.WarmupIntervals, cfg.MeasureIntervals = 600, 6000

	objectBits := cfg.ObjectBits()
	for _, layout := range []mmis.TapeLayout{mmis.TapeDiskMatched, mmis.TapeSequential} {
		secs := cfg.Tertiary.MaterializeSeconds(objectBits, layout, cfg.IntervalSeconds())
		fmt.Printf("tape layout %-12s: materialize one object in %7.1f s (%5.1f mbps effective)\n",
			layout, secs, objectBits/secs/1e6)
	}
	fmt.Println()

	// Run the archive with each layout and compare end-to-end
	// throughput: on a miss-heavy workload the tape layout is
	// directly visible in displays per hour.
	for _, layout := range []mmis.TapeLayout{mmis.TapeDiskMatched, mmis.TapeSequential} {
		c := cfg
		c.TapeLayout = layout
		eng, err := mmis.NewSimulation(c, "striped")
		if err != nil {
			log.Fatal(err)
		}
		res := eng.Run()
		fmt.Printf("archive with %-12s tape: %6.1f displays/hour, %2d materializations, tertiary %5.1f%% busy\n",
			layout, res.Throughput(), res.Materializa, res.TertiaryBusy*100)
	}
	fmt.Println()

	// The replacement policy at work: the farm holds 20 of 40 clips;
	// uniform access keeps the least-frequently-used clips churning.
	eng, err := mmis.NewSimulation(cfg, "striped")
	if err != nil {
		log.Fatal(err)
	}
	res := eng.Run()
	fmt.Printf("steady state: %d unique clips disk-resident (farm capacity %d of %d in the library)\n",
		res.UniqueResidents, cfg.DefaultPreload(), cfg.Objects)
	fmt.Printf("admission latency: mean %.1f s, max %.1f s — cold clips wait for the tape robot\n",
		res.Latency.Mean(), res.Latency.Max())
}
