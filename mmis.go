package mmis

import (
	"fmt"

	"github.com/mmsim/staggered/internal/analytic"
	"github.com/mmsim/staggered/internal/core"
	"github.com/mmsim/staggered/internal/diskmodel"
	"github.com/mmsim/staggered/internal/media"
	"github.com/mmsim/staggered/internal/metrics"
	"github.com/mmsim/staggered/internal/playback"
	"github.com/mmsim/staggered/internal/sched"
	"github.com/mmsim/staggered/internal/tertiary"
)

// Layout planning (the paper's §3 data-placement discipline).
type (
	// Layout is a disk farm's striping configuration: D disks, stride K.
	Layout = core.Layout
	// Placement records where one object lives on the farm.
	Placement = core.Placement
	// Store allocates per-disk storage for staggered-striped objects.
	Store = core.Store
	// NamedPlacement pairs a placement with a display name, for the
	// Grid renderings of the paper's layout figures.
	NamedPlacement = core.NamedPlacement
)

// NewLayout returns a staggered-striping layout of d disks with
// stride k (1 ≤ k ≤ d).
func NewLayout(d, k int) (Layout, error) { return core.NewLayout(d, k) }

// NewStore returns a storage allocator over the layout with the given
// per-disk capacity in fragments, for a catalog of object ids
// [0, objects); Place refuses an id outside it.
func NewStore(l Layout, capacityFragments, objects int) (*Store, error) {
	if objects < 0 {
		return nil, fmt.Errorf("mmis: object count %d is negative", objects)
	}
	s, err := core.NewStore(l, capacityFragments)
	if err != nil {
		return nil, err
	}
	s.Reserve(objects)
	return s, nil
}

// NewPlacement validates a placement of an object with degree m and n
// subobjects whose first fragment lives on disk first.
func NewPlacement(l Layout, first, m, n int) (Placement, error) {
	return core.NewPlacement(l, first, m, n)
}

// Grid returns the fragment map of the placements in the presentation
// of the paper's Figures 1, 4, and 5; RenderGrid formats it.
func Grid(d, rows int, objs []NamedPlacement) ([][]string, error) {
	return core.Grid(d, rows, objs)
}

// RenderGrid formats a Grid as an aligned text table.
func RenderGrid(g [][]string) string { return core.RenderGrid(g) }

// Media types and the object catalog.
type (
	// MediaType is a media type with a constant bandwidth requirement.
	MediaType = media.Type
	// Object is a multimedia object in the database.
	Object = media.Object
	// Catalog is the object database.
	Catalog = media.Catalog
)

// Media types named in the paper (§1 and §4).
var (
	NTSC     = media.NTSC
	CCIR601  = media.CCIR601
	HDTV     = media.HDTV
	CDAudio  = media.CDAudio
	SimVideo = media.SimVideo
)

// NewCatalog returns an empty object catalog.
func NewCatalog() *Catalog { return media.NewCatalog() }

// Disk and tertiary device models.
type (
	// DiskSpec describes a disk drive (geometry, seek curve, rates).
	DiskSpec = diskmodel.Spec
	// TertiarySpec describes a tertiary storage device.
	TertiarySpec = tertiary.Spec
	// TapeLayout selects how objects are recorded on tertiary store.
	TapeLayout = tertiary.TapeLayout
)

// Drives and devices from the paper.
var (
	// SabreDisk is the IMPRIMIS Sabre 1.2 GB drive of §3.1.
	SabreDisk = diskmodel.Sabre
	// SimulationDisk is the 4.5 GB drive of Table 3.
	SimulationDisk = diskmodel.Simulation45GB
	// SimulationTertiary is the 40 mbps device of Table 3.
	SimulationTertiary = tertiary.Table3
)

// Tape layouts (§3.2.4).
const (
	TapeSequential  = tertiary.Sequential
	TapeDiskMatched = tertiary.DiskMatched
)

// Simulation.
type (
	// SimulationConfig parametrizes one throughput-simulation run.
	SimulationConfig = sched.Config
	// Simulation is the generic interval engine: the shared mechanism
	// core bound to one registered technique.
	Simulation = sched.Engine
	// Result carries a run's statistics (throughput, latency, ...).
	Result = metrics.Run
)

// Table3Config returns the paper's §4.1 simulation configuration for
// the given station count, geometric access mean, and seed.
func Table3Config(stations int, distMean float64, seed uint64) SimulationConfig {
	return sched.Table3Config(stations, distMean, seed)
}

// NewSimulation builds a simulation of cfg running the technique with
// the given registry key: "striped", "staggered", or "vdr".  cfg is
// used verbatim: "striped" and "staggered" build the same striping
// engine with cfg.K as the stride; "staggered" adds Algorithms 1
// and 2.
func NewSimulation(cfg SimulationConfig, technique string) (*Simulation, error) {
	ti, ok := sched.TechniqueByKey(technique)
	if !ok {
		return nil, fmt.Errorf("mmis: unknown technique %q (have %v)", technique, sched.TechniqueKeys())
	}
	return ti.New(cfg)
}

// Analytic capacity planning (§3.1, §3.2.2, §3.2.3).

// EffectiveDiskBandwidth returns B_disk for the given fragment size
// on the given drive (§3.1's formula).
func EffectiveDiskBandwidth(spec DiskSpec, fragmentBytes float64) float64 {
	return spec.EffectiveBandwidth(fragmentBytes)
}

// DegreeOfDeclustering returns M = ceil(bDisplay / bDisk).  The disk
// bandwidth must be positive.
func DegreeOfDeclustering(t MediaType, bDisk float64) (int, error) {
	if !(bDisk > 0) {
		return 0, fmt.Errorf("mmis: disk bandwidth %v must be positive", bDisk)
	}
	return t.Degree(bDisk), nil
}

// MinimumBufferBytes is Equation (1): per-disk memory masking the
// head-switch delay.  Every argument must be non-negative.
func MinimumBufferBytes(bDisk, tSwitch, tSector float64) (float64, error) {
	if !(bDisk >= 0 && tSwitch >= 0 && tSector >= 0) {
		return 0, fmt.Errorf("mmis: buffer arguments (%v, %v, %v) must be non-negative", bDisk, tSwitch, tSector)
	}
	return analytic.MinimumBufferBytes(bDisk, tSwitch, tSector), nil
}

// UniqueDisksUsed returns how many distinct disks an object touches
// under a given stride (§3.2.2).  Every argument must be positive.
func UniqueDisksUsed(d, k, m, n int) (int, error) {
	if d <= 0 || k <= 0 || m <= 0 || n <= 0 {
		return 0, fmt.Errorf("mmis: disks %d, stride %d, degree %d and subobjects %d must be positive", d, k, m, n)
	}
	return analytic.UniqueDisksUsed(d, k, m, n), nil
}

// DataSkewFree reports whether gcd(D, k) = 1, the §3.2.2 balance
// guarantee.
func DataSkewFree(d, k int) bool { return analytic.DataSkewFree(d, k) }

// Playback (§3.2.5): rewind, fast-forward, and fast-forward with scan.

// PlaybackSession is one viewer's interactive playback over an object
// and its fast-forward replica.
type PlaybackSession = playback.Session

// PlaybackMode is the state of a playback session.
type PlaybackMode = playback.Mode

// Playback modes.
const (
	PlaybackPlaying  = playback.Playing
	PlaybackScanning = playback.Scanning
	PlaybackWaiting  = playback.Waiting
	PlaybackDone     = playback.Done
)

// DefaultScanRatio is the paper's VHS-style example: every sixteenth
// frame.
const DefaultScanRatio = playback.DefaultScanRatio

// NewPlaybackSession returns a session over a normal-speed object and
// its fast-forward replica placement.
func NewPlaybackSession(normal, replica Placement, scanRatio int) (*PlaybackSession, error) {
	return playback.NewSession(normal, replica, scanRatio)
}

// FFReplicaSubobjects returns the length of the fast-forward replica
// for an n-subobject object.  n and ratio must be positive.
func FFReplicaSubobjects(n, ratio int) (int, error) {
	if n <= 0 || ratio <= 0 {
		return 0, fmt.Errorf("mmis: subobjects %d and scan ratio %d must be positive", n, ratio)
	}
	return playback.ReplicaSubobjects(n, ratio), nil
}

// FFReplicaOverhead returns the storage overhead fraction of keeping
// fast-forward replicas (~1/ratio).  ratio must be positive.
func FFReplicaOverhead(ratio int) (float64, error) {
	if ratio <= 0 {
		return 0, fmt.Errorf("mmis: scan ratio %d must be positive", ratio)
	}
	return playback.ReplicaOverheadFraction(ratio), nil
}
