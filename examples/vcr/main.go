// VCR: interactive playback on a staggered-striped farm (§3.2.5 of
// the paper) — play, rewind, fast-forward, and fast-forward with
// scan through a movie, with the fast-forward replica paying for the
// scan's 16× consumption rate.
package main

import (
	"fmt"
	"log"

	mmis "github.com/mmsim/staggered"
)

func main() {
	const (
		disks      = 100
		stride     = 1
		m          = 5    // 100 mbps movie on 20 mbps disks
		subobjects = 3000 // a 30-minute Table 3 movie
	)
	layout, err := mmis.NewLayout(disks, stride)
	if err != nil {
		log.Fatal(err)
	}
	store, err := mmis.NewStore(layout, 3000, 2) // the movie and its replica
	if err != nil {
		log.Fatal(err)
	}

	// The movie and its fast-forward replica (every 16th frame).
	movie, err := store.Place(0, m, subobjects)
	if err != nil {
		log.Fatal(err)
	}
	repLen, err := mmis.FFReplicaSubobjects(subobjects, mmis.DefaultScanRatio)
	if err != nil {
		log.Fatal(err)
	}
	replica, err := store.Place(1, m, repLen)
	if err != nil {
		log.Fatal(err)
	}
	overhead, err := mmis.FFReplicaOverhead(mmis.DefaultScanRatio)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("movie: %d subobjects over %d disks; FF replica: %d subobjects (%.1f%% storage overhead)\n\n",
		subobjects, movie.UniqueDisks(), repLen, overhead*100)

	session, err := mmis.NewPlaybackSession(movie, replica, mmis.DefaultScanRatio)
	if err != nil {
		log.Fatal(err)
	}

	// A light background load: disks 10..29 are busy with other
	// displays; everything else is idle.
	free := func(disk int) bool { return disk < 10 || disk >= 30 }

	tick := func(n int) {
		for i := 0; i < n && session.Mode() != mmis.PlaybackDone; i++ {
			if _, err := session.Tick(free); err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Println("watch the opening (200 subobjects ≈ 2 minutes)...")
	tick(200)
	fmt.Printf("  position %d, mode %v\n", session.Position(), session.Mode())

	fmt.Println("fast-forward with scan through the slow part...")
	if err := session.StartScan(free); err != nil {
		log.Fatal(err)
	}
	tick(60) // 60 replica frames cover 960 normal subobjects
	if err := session.StopScan(free); err != nil {
		log.Fatal(err)
	}
	tick(1)
	fmt.Printf("  position %d, mode %v (scanned %d frames, switch lag %d intervals)\n",
		session.Position(), session.Mode(), session.Scanned(), session.SwitchLag())

	fmt.Println("rewind to the chase scene at subobject 400...")
	if err := session.Seek(400, free); err != nil {
		log.Fatal(err)
	}
	tick(1)
	fmt.Printf("  position %d, mode %v\n", session.Position(), session.Mode())

	fmt.Println("watch to the end...")
	tick(subobjects)
	fmt.Printf("  mode %v: played %d normal + %d scan subobjects, total repositioning lag %d intervals\n",
		session.Mode(), session.Played(), session.Scanned(), session.SwitchLag())
}
