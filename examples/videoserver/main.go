// Videoserver: a mixed-media movie server on one staggered-striped
// farm — the scenario of the paper's Figure 5.  Three media types
// (40, 60, and 80 mbps) share 48 disks with stride 1; displays are
// admitted with Algorithm 1 (time-fragmented virtual disks) and
// coalesced with Algorithm 2 as intervening disks free up.
package main

import (
	"fmt"
	"log"

	mmis "github.com/mmsim/staggered"
)

func main() {
	// The catalog: one third of the library at each bandwidth.
	catalog := mmis.NewCatalog()
	types := []mmis.MediaType{
		{Name: "sd-40", Display: 40e6}, // M = 2 at 20 mbps disks
		{Name: "ed-60", Display: 60e6}, // M = 3
		{Name: "hd-80", Display: 80e6}, // M = 4
	}
	const nObjects = 48
	degrees := make([]int, nObjects)
	for i := 0; i < nObjects; i++ {
		t := types[i%3]
		o, err := catalog.Add(mmis.Object{
			Name:       fmt.Sprintf("%s-title-%02d", t.Name, i/3),
			Type:       t,
			Subobjects: 120,
		})
		if err != nil {
			log.Fatal(err)
		}
		degrees[o.ID] = mmis.DegreeOfDeclustering(t, 20e6)
	}

	// Show the Figure 5 placement discipline on the first three titles.
	layout, err := mmis.NewLayout(12, 1)
	if err != nil {
		log.Fatal(err)
	}
	y, _ := mmis.NewPlacement(layout, 0, 4, 5)
	x, _ := mmis.NewPlacement(layout, 4, 3, 5)
	z, _ := mmis.NewPlacement(layout, 7, 2, 5)
	grid, err := mmis.Grid(12, 5, []mmis.NamedPlacement{
		{Name: "Y", P: y}, {Name: "X", P: x}, {Name: "Z", P: z},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Mixed-media placement (stride 1, as in the paper's Figure 5):")
	fmt.Println(mmis.RenderGrid(grid))

	// Simulate the server under load: staggered striping uses each
	// display's exact degree, while the naive alternative would size
	// every cluster for the 80 mbps type and waste the difference.
	cfg := mmis.Table3Config(40, 8, 1)
	cfg.D, cfg.K, cfg.M = 48, 1, 4
	cfg.CapacityFragments, cfg.Objects, cfg.Subobjects = 480, nObjects, 120
	cfg.WarmupIntervals, cfg.MeasureIntervals = 600, 3000
	cfg.Degrees = degrees
	cfg.Fragmented = true // Algorithm 1: admit on non-adjacent disks
	cfg.Coalescing = true // Algorithm 2: coalesce when disks free up

	eng, err := mmis.NewSimulation(cfg, "staggered")
	if err != nil {
		log.Fatal(err)
	}
	res := eng.Run()
	fmt.Printf("staggered striping, 40 viewers on %d disks:\n", cfg.D)
	fmt.Printf("  throughput:        %.1f displays/hour\n", res.Throughput())
	fmt.Printf("  disk utilization:  %.1f%%\n", res.DiskBusy*100)
	fmt.Printf("  admission latency: mean %.1f s\n", res.Latency.Mean())
	fmt.Printf("  coalescings:       %d (Algorithm 2 invocations)\n", res.Coalescings)
	fmt.Printf("  hiccups:           %d\n", res.Hiccups)

	naive := cfg
	naive.Degrees = nil // every display occupies M_max = 4 disks
	naive.K = 4
	naive.Fragmented, naive.Coalescing = false, false
	neng, err := mmis.NewSimulation(naive, "striped")
	if err != nil {
		log.Fatal(err)
	}
	nres := neng.Run()
	fmt.Printf("naive M_max clusters:  %.1f displays/hour (%.1f%% fewer)\n",
		nres.Throughput(), (res.Throughput()-nres.Throughput())/res.Throughput()*100)
}
