package mmis

import (
	"fmt"
	"io"

	"github.com/mmsim/staggered/internal/analytic"
	"github.com/mmsim/staggered/internal/buffer"
	"github.com/mmsim/staggered/internal/cluster"
	"github.com/mmsim/staggered/internal/core"
	"github.com/mmsim/staggered/internal/diskmodel"
	"github.com/mmsim/staggered/internal/experiment"
	"github.com/mmsim/staggered/internal/media"
	"github.com/mmsim/staggered/internal/metrics"
	"github.com/mmsim/staggered/internal/playback"
	"github.com/mmsim/staggered/internal/sched"
	"github.com/mmsim/staggered/internal/tertiary"
	"github.com/mmsim/staggered/internal/vdisk"
	"github.com/mmsim/staggered/internal/workload"
)

// Layout planning (the paper's §3 data-placement discipline).
type (
	// Layout is a disk farm's striping configuration: D disks, stride K.
	Layout = core.Layout
	// Placement records where one object lives on the farm.
	Placement = core.Placement
	// Store allocates per-disk storage for staggered-striped objects.
	Store = core.Store
	// VDRStore allocates cluster-granular storage for the virtual data
	// replication baseline.
	VDRStore = core.VDRStore
	// NamedPlacement pairs a placement with a display name, for the
	// Grid renderings of the paper's layout figures.
	NamedPlacement = core.NamedPlacement
)

// NewLayout returns a staggered-striping layout of d disks with
// stride k (1 ≤ k ≤ d).
func NewLayout(d, k int) (Layout, error) { return core.NewLayout(d, k) }

// SimpleStriping returns the k = M special case (§3.1).
func SimpleStriping(d, m int) (Layout, error) { return core.SimpleStriping(d, m) }

// VirtualReplication returns the k = D special case — each object
// pinned to one cluster, the [GS93] baseline.
func VirtualReplication(d int) (Layout, error) { return core.VirtualReplication(d) }

// NewStore returns a storage allocator over the layout with the given
// per-disk capacity in fragments.
func NewStore(l Layout, capacityFragments int) (*Store, error) {
	return core.NewStore(l, capacityFragments)
}

// NewVDRStore returns the baseline's cluster-granular allocator.
func NewVDRStore(d, m, capacityFragments int) (*VDRStore, error) {
	return core.NewVDRStore(d, m, capacityFragments)
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

// Virtual disks and the delivery algorithms of §3.2.1.
type (
	// Assignment maps a display's fragment streams to virtual disks.
	Assignment = vdisk.Assignment
	// Delivery executes Algorithm 1 (time-fragmented delivery) with
	// Algorithm 2 (dynamic coalescing) available via Coalesce.
	Delivery = vdisk.Delivery
)

// ChooseVirtualDisks selects virtual disks from the free set for an
// object starting at physical disk first, minimizing buffering.
func ChooseVirtualDisks(d, k, first, m int, free []int) (Assignment, bool) {
	return vdisk.ChooseVirtualDisks(d, k, first, m, free)
}

// NewDelivery prepares the hiccup-free delivery of an n-subobject
// object under the assignment.
func NewDelivery(a Assignment, n int, trace bool) (*Delivery, error) {
	return vdisk.NewDelivery(a, n, trace)
}

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
	// SimulationTechnique describes one registered technique (CLI
	// key, display name, configuration rules).
	SimulationTechnique = sched.TechniqueInfo
	// Result carries a run's statistics (throughput, latency, ...).
	Result = metrics.Run
)

// Table3Config returns the paper's §4.1 simulation configuration for
// the given station count, geometric access mean, and seed.
func Table3Config(stations int, distMean float64, seed uint64) SimulationConfig {
	return sched.Table3Config(stations, distMean, seed)
}

// NewSimulation builds a simulation of cfg running the technique with
// the given registry key ("striped", "staggered", or "vdr"; see
// SimulationTechniques).  cfg is used verbatim: "striped" and
// "staggered" build the same striping engine with cfg.K as the
// stride; "staggered" adds Algorithms 1 and 2.
func NewSimulation(cfg SimulationConfig, technique string) (*Simulation, error) {
	ti, ok := sched.TechniqueByKey(technique)
	if !ok {
		return nil, fmt.Errorf("mmis: unknown technique %q (have %v)", technique, sched.TechniqueKeys())
	}
	return ti.New(cfg)
}

// SimulationTechniques returns the registered techniques in
// presentation order.
func SimulationTechniques() []SimulationTechnique {
	return sched.Techniques()
}

// Cluster simulation (DESIGN.md §13): N engines behind one clock.
type (
	// ClusterConfig parametrizes a shared-clock multi-server run: the
	// fleet size, technique, dispatch policy, and the per-server base
	// configuration.
	ClusterConfig = cluster.Config
	// ClusterSim advances N server engines in global earliest-time
	// order, routing a cluster-wide Poisson arrival stream through a
	// pluggable dispatch policy.
	ClusterSim = cluster.Sim
	// ClusterResult carries the merged aggregate plus per-server runs
	// and routing counters.
	ClusterResult = cluster.Result
	// DispatchPolicy routes cluster arrivals to member servers.
	DispatchPolicy = cluster.Dispatch
)

// NewClusterSimulation builds a shared-clock cluster simulation.  A
// 1-server cluster reproduces the single engine's Result
// byte-for-byte.
func NewClusterSimulation(cfg ClusterConfig) (*ClusterSim, error) {
	return cluster.New(cfg)
}

// DispatchPolicies returns the registered dispatch policy keys
// ("roundrobin", "leastloaded", "popularity").
func DispatchPolicies() []string { return cluster.Policies() }

// Reproduce writes every table of EXPERIMENTS.md — the paper's
// figures, Figure 8 and Table 4 at full scale, and the extensions — at
// seed 1, each under a "== <section>" line (what cmd/repro prints).
func Reproduce(w io.Writer) error { return experiment.Reproduce(w) }

// Analytic capacity planning (§3.1, §3.2.2, §3.2.3).

// EffectiveDiskBandwidth returns B_disk for the given fragment size
// on the given drive (§3.1's formula).
func EffectiveDiskBandwidth(spec DiskSpec, fragmentBytes float64) float64 {
	return spec.EffectiveBandwidth(fragmentBytes)
}

// DegreeOfDeclustering returns M = ceil(bDisplay / bDisk).
func DegreeOfDeclustering(t MediaType, bDisk float64) int { return t.Degree(bDisk) }

// MinimumBufferBytes is Equation (1): per-disk memory masking the
// head-switch delay.
func MinimumBufferBytes(bDisk, tSwitch, tSector float64) float64 {
	return buffer.MinimumBytes(bDisk, tSwitch, tSector)
}

// UniqueDisksUsed returns how many distinct disks an object touches
// under a given stride (§3.2.2).
func UniqueDisksUsed(d, k, m, n int) int { return analytic.UniqueDisksUsed(d, k, m, n) }

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
// for an n-subobject object.
func FFReplicaSubobjects(n, ratio int) int { return playback.ReplicaSubobjects(n, ratio) }

// FFReplicaOverhead returns the storage overhead fraction of keeping
// fast-forward replicas (~1/ratio).
func FFReplicaOverhead(ratio int) float64 { return playback.ReplicaOverheadFraction(ratio) }

// Configuration advice (§3.1, §3.2.2 guidance as code).

// LayoutAdvice is a recommended stride with the paper's reasoning.
type LayoutAdvice = core.Advice

// RecommendStride picks the stride the paper's analysis prefers for a
// farm of d disks serving media with the given degrees.
func RecommendStride(d int, degrees []int) (LayoutAdvice, error) {
	return core.RecommendStride(d, degrees)
}

// RecommendFragmentCylinders returns the largest fragment size whose
// worst-case startup latency fits the budget (§3.1 tradeoff).
func RecommendFragmentCylinders(spec DiskSpec, clusters int, latencyBudgetSeconds float64) (int, bool) {
	return core.RecommendFragmentCylinders(spec, clusters, latencyBudgetSeconds)
}

// Availability analysis (extension): the failure-isolation cost of
// striping.

// BlastRadius returns how many objects lose data when one disk fails
// under the given layout.
func BlastRadius(d, k, m, n, count int) int { return analytic.BlastRadius(d, k, m, n, count) }

// SurvivingBandwidthFraction returns the fraction of objects still
// playable after the given number of disk failures.
func SurvivingBandwidthFraction(d, k, m, n, failures int) float64 {
	return analytic.SurvivingBandwidthFraction(d, k, m, n, failures)
}

// PinnedLayoutSavings returns the disk-bandwidth saving of clustering
// an object's subobjects on adjacent cylinders, possible only with
// k = D (§3.2.2's "less than 10%").
func PinnedLayoutSavings(spec DiskSpec, fragmentBytes float64) float64 {
	return spec.PinnedLayoutSavings(fragmentBytes)
}

// Workload traces.

// WorkloadTrace is a recorded per-station reference string that can
// drive experiments in place of the synthetic distribution.
type WorkloadTrace = workload.Trace

// ParseWorkloadTrace reads the one-line-per-station text format.
func ParseWorkloadTrace(r io.Reader, objects int) (*WorkloadTrace, error) {
	return workload.ParseTrace(r, objects)
}
