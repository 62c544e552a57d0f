// Package mmis is a multimedia information system storage simulator
// and layout library implementing staggered striping (Berson,
// Ghandeharizadeh, Muntz, Ju — "Staggered Striping in Multimedia
// Information Systems", SIGMOD 1994).
//
// Continuous-media objects (video, audio) need more bandwidth than a
// single disk provides, so each object is declustered: subobject s is
// split into M = ceil(B_Display/B_Disk) fragments placed on disks
//
//	disk(s, i) = (first + s·k + i) mod D
//
// where k is the system-wide stride.  During each fixed time interval
// a display occupies M disks and then shifts k to the right, so any
// mix of media types shares one farm with no cluster-boundary waste.
// Simple striping (k = M) and virtual data replication (k = D, the
// [GS93] baseline) are special cases.
//
// The package exposes:
//
//   - Layout planning: Layout, Placement, Store — pure arithmetic for
//     placing objects and checking balance (§3.2 of the paper), and
//     Grid, which renders the paper's layout figures.
//
//   - Media and device models: the paper's media types, the object
//     catalog, and the Sabre, Table 3 disk and tertiary devices.
//
//   - Analytic models: fragment-size/latency/bandwidth tradeoffs,
//     Equation (1) memory sizing, stride analysis (§3.1, §3.2.2).
//
//   - Playback: rewind, fast-forward and scan over a fast-forward
//     replica (§3.2.5).
//
//   - Simulation: interval-quantized throughput engines for simple
//     striping, staggered striping with time-fragmented delivery and
//     dynamic coalescing (Algorithms 1 and 2, the "staggered"
//     technique), and the virtual-data-replication baseline.
//
// The command cmd/repro prints every table and figure of the paper's
// evaluation; the examples directory holds the facade's own callers.
//
// # Quickstart
//
//	layout, _ := mmis.NewLayout(12, 1) // 12 disks, stride 1
//	store, _ := mmis.NewStore(layout, 3000 /* cylinders per disk */, 1 /* objects */)
//	pl, _ := store.Place(0 /* object id */, 4 /* M */, 3000 /* subobjects */)
//	fmt.Println(pl.Disk(7, 2)) // disk of fragment 2 of subobject 7
//
//	cfg := mmis.Table3Config(64, 20, 1) // 64 stations, skewed access
//	eng, _ := mmis.NewSimulation(cfg, "striped")
//	res := eng.Run()
//	fmt.Printf("%.1f displays/hour\n", res.Throughput())
//
// See the examples directory for runnable programs and EXPERIMENTS.md
// for the paper-versus-measured record.
package mmis
