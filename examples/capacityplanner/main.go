// Capacityplanner: size a multimedia server without running a
// simulation, using the paper's closed-form models (§3.1, §3.2.2,
// §3.2.3, Equation 1).
package main

import (
	"fmt"
	"log"

	mmis "github.com/mmsim/staggered"
	"github.com/mmsim/staggered/internal/analytic"
)

func main() {
	disk := mmis.SimulationDisk
	fmt.Printf("drive: %s — %d cylinders × %.3f MB, peak %.2f mbps\n\n",
		disk.Name, disk.Cylinders, disk.CylinderBytes/1e6, disk.TransferRate/1e6)

	// §3.1: the fragment-size tradeoff.  Bigger fragments waste less
	// bandwidth on head switches but stretch the worst-case startup
	// latency (R−1)·S(C_i).
	const clusters = 200
	rows, err := analytic.FragmentSweep(disk, clusters, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fragment  S(C_i)   effective-bw  wasted  worst-startup")
	for _, r := range rows {
		fmt.Printf("%d cyl     %6.1f ms %8.2f mbps %5.1f%%  %6.1f s\n",
			r.Cylinders, r.ServiceTimeSeconds*1000, r.EffectiveBandwidth/1e6,
			r.WastedFraction*100, r.WorstLatencySecs)
	}
	fmt.Println()

	// How many disks per display, and what does integral allocation
	// waste?  §3.2.3's half-bandwidth logical disks cut the rounding
	// loss.
	bDisk := mmis.EffectiveDiskBandwidth(disk, disk.CylinderBytes)
	fmt.Printf("effective B_disk at 1-cylinder fragments: %.2f mbps\n\n", bDisk/1e6)
	fmt.Println("media            M(whole)  waste   M(logical)  waste")
	for _, t := range []mmis.MediaType{
		mmis.CDAudio, {Name: "30 mbps", Display: 30e6}, mmis.NTSC,
		{Name: "3/2 B_disk", Display: 1.5 * bDisk}, mmis.SimVideo, mmis.CCIR601,
	} {
		w, ww, l, lw := analytic.DisksForBandwidth(t.Display, bDisk)
		fmt.Printf("%-16s %5d %8.1f%% %8d %8.1f%%\n", t.Name, w, ww*100, l, lw*100)
	}
	fmt.Println()

	// Equation (1): memory per disk to mask the head-switch delay
	// (one sector at the effective rate as T_sector).
	tSector := 512 * 8 / bDisk
	mem, err := mmis.MinimumBufferBytes(bDisk, disk.TSwitch(), tSector)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Equation (1) minimum memory per disk: %.0f KB\n\n", mem/1e3)

	// §3.2.2: stride vs unique disks for a 100-cylinder object on a
	// 100-disk farm (M = 4).
	fmt.Println("stride k  unique disks used  skew-free")
	for _, k := range []int{1, 2, 4, 10, 100} {
		used, err := mmis.UniqueDisksUsed(100, k, 4, 25)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d %18d %10v\n", k, used, mmis.DataSkewFree(100, k))
	}
	fmt.Println()

	// Farm sizing for the Table 3 database.
	objs := analytic.FarmObjectCapacity(1000, 3000, 5, 3000)
	fmt.Printf("a 1000-disk farm holds %d Table-3 objects (%.1f hours of 100 mbps video)\n",
		objs, float64(objs)*1814.4/3600)
	fmt.Printf("aggregate farm bandwidth: %.1f gbps\n",
		analytic.AggregateBandwidth(1000, bDisk)/1e9)
}
