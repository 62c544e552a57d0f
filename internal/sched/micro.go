package sched

import (
	"fmt"
	"math"

	"github.com/mmsim/staggered/internal/diskmodel"
	"github.com/mmsim/staggered/internal/rng"
)

// MicroConfig drives the event-level validation model:
// one display of N subobjects over M disks, with every seek,
// rotational latency, and media transfer simulated individually.  It
// exists to justify the interval quantization used by the throughput
// engines: the worst-case interval S(C_i) must cover every actual
// I/O, which the paper's §3.1 protocol assumes.
type MicroConfig struct {
	Disk          diskmodel.Spec
	FragmentBytes float64
	M             int // disks read in parallel
	N             int // subobjects (intervals)
	Seed          uint64

	// IntervalSeconds overrides the interval length; 0 uses the
	// worst-case service time S(C_i).  Setting it below the worst
	// case demonstrates hiccups.
	IntervalSeconds float64
}

// MicroResult reports the event-level run.
type MicroResult struct {
	IntervalSeconds float64
	Hiccups         int     // intervals whose I/O overran the interval
	MeanReadSeconds float64 // mean per-disk read time (reposition+transfer)
	MaxReadSeconds  float64
	DiskUtilization float64 // busy fraction of the M disks
}

// RunMicro executes the event-level model.
func RunMicro(cfg MicroConfig) (MicroResult, error) {
	if err := cfg.Disk.Validate(); err != nil {
		return MicroResult{}, err
	}
	switch {
	case cfg.M <= 0 || cfg.N <= 0:
		return MicroResult{}, fmt.Errorf("sched: micro model needs positive M and N")
	case !(cfg.FragmentBytes > 0) || math.IsInf(cfg.FragmentBytes, 1):
		return MicroResult{}, fmt.Errorf("sched: micro model needs a positive finite fragment, got %v", cfg.FragmentBytes)
	// Every read seeks to a random start cylinder that leaves room for
	// the whole fragment, so it must span fewer cylinders than the disk
	// has.  Counted in floats: CylinderCrossings overflows int for
	// huge fragments.
	case math.Ceil(cfg.FragmentBytes/cfg.Disk.CylinderBytes) >= float64(cfg.Disk.Cylinders):
		return MicroResult{}, fmt.Errorf("sched: micro model fragment of %v bytes spans the whole %d-cylinder disk", cfg.FragmentBytes, cfg.Disk.Cylinders)
	case !(cfg.IntervalSeconds >= 0) || math.IsInf(cfg.IntervalSeconds, 1):
		return MicroResult{}, fmt.Errorf("sched: micro model interval %v must be zero or positive and finite", cfg.IntervalSeconds)
	}
	interval := cfg.IntervalSeconds
	if interval == 0 {
		interval = cfg.Disk.ServiceTime(cfg.FragmentBytes)
	}

	// The disks never interact: each read depends only on its own
	// disk's stream, so each disk runs its N reads as one loop.
	src := rng.NewSource(cfg.Seed)
	var (
		hiccups   int
		readSum   float64
		readMax   float64
		fragCyls  = cfg.Disk.CylinderCrossings(cfg.FragmentBytes) + 1
		transfer  = cfg.Disk.TransferTime(cfg.FragmentBytes)
		crossSeek = float64(cfg.Disk.CylinderCrossings(cfg.FragmentBytes)) * cfg.Disk.SeekMin
	)
	for m := 0; m < cfg.M; m++ {
		stream := src.StreamN("disk", m)
		pos := stream.Intn(cfg.Disk.Cylinders)
		for s := 0; s < cfg.N; s++ {
			// The head repositions to the fragment's cylinder.  In the
			// macro model consecutive fragments of an object sit on
			// consecutive cylinders, but between displays the disk
			// serves other requests, so each interval begins with a
			// random-distance seek (the paper's T_switch budget covers
			// the worst case).
			target := stream.Intn(cfg.Disk.Cylinders - fragCyls)
			dist := target - pos
			if dist < 0 {
				dist = -dist
			}
			pos = target + fragCyls - 1
			seek := cfg.Disk.SeekTime(dist)
			latency := stream.Uniform(0, cfg.Disk.LatencyMax)
			io := seek + latency + crossSeek + transfer
			readSum += io
			readMax = max(readMax, io)
			if io > interval+1e-12 {
				hiccups++
			}
		}
	}
	total := float64(cfg.N) * interval * float64(cfg.M)
	res := MicroResult{
		IntervalSeconds: interval,
		Hiccups:         hiccups,
		MeanReadSeconds: readSum / float64(cfg.M*cfg.N),
		MaxReadSeconds:  readMax,
		DiskUtilization: readSum / total,
	}
	return res, nil
}
