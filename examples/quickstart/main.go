// Quickstart: plan a staggered-striped layout, place a video object,
// inspect where its fragments live, and run a small end-to-end
// simulation comparing striping with the virtual-data-replication
// baseline.
package main

import (
	"fmt"
	"log"

	mmis "github.com/mmsim/staggered"
)

func main() {
	// 1. Plan a layout: 12 disks, stride 1 (always skew-free).
	layout, err := mmis.NewLayout(12, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("farm: %d disks, stride %d, skew-free: %v\n\n",
		layout.D, layout.K, mmis.DataSkewFree(layout.D, layout.K))

	// 2. How many disks does each media type need at 20 mbps/disk?
	const bDisk = 20e6
	for _, t := range []mmis.MediaType{mmis.NTSC, mmis.CCIR601, mmis.CDAudio} {
		m, err := mmis.DegreeOfDeclustering(t, bDisk)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %6.0f mbps -> M = %d disks\n", t.Name, t.Display/1e6, m)
	}
	fmt.Println()

	// 3. Place an object and look up fragment locations.
	store, err := mmis.NewStore(layout, 3000 /* cylinders per disk */, 1 /* objects */)
	if err != nil {
		log.Fatal(err)
	}
	pl, err := store.Place(0 /* id */, 3 /* M */, 100 /* subobjects */)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("object 0: first disk %d, %d fragments, %d unique disks used\n",
		pl.First, pl.TotalFragments(), pl.UniqueDisks())
	fmt.Printf("fragment (subobject 7, piece 2) lives on disk %d\n\n", pl.Disk(7, 2))

	// 4. Run a reduced simulation: 32 stations, skewed access.
	cfg := mmis.Table3Config(32, 20, 1)
	cfg.D, cfg.K, cfg.M = 50, 5, 5
	cfg.CapacityFragments, cfg.Objects, cfg.Subobjects = 60, 40, 30
	cfg.WarmupIntervals, cfg.MeasureIntervals = 600, 3000

	striped, err := mmis.NewSimulation(cfg, "striped")
	if err != nil {
		log.Fatal(err)
	}
	rs := striped.Run()
	vdr, err := mmis.NewSimulation(cfg, "vdr")
	if err != nil {
		log.Fatal(err)
	}
	rv := vdr.Run()

	fmt.Printf("simple striping:          %6.1f displays/hour (hiccups: %d)\n",
		rs.Throughput(), rs.Hiccups)
	fmt.Printf("virtual data replication: %6.1f displays/hour (hiccups: %d)\n",
		rv.Throughput(), rv.Hiccups)
	fmt.Printf("improvement:              %6.1f%%\n",
		(rs.Throughput()-rv.Throughput())/rv.Throughput()*100)
}
