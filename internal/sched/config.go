// Package sched implements the Centralized Scheduler of the paper's
// simulation model (§4.1) — the Object Manager, Disk Manager, and
// Tertiary Manager — for both striping techniques and for the virtual
// data replication baseline, together with the schedule renderings of
// Figures 3 and 7.
//
// Following the paper, time is quantized into fixed intervals
// (S(C_i), the service time of a cluster per activation); within an
// interval a display occupies M_X disks and then shifts k disks to
// the right.  The engines below advance interval by interval:
// completions first, then tertiary progress, then admissions — the
// same event order CSIM's process scheduling yields for this model.
package sched

import (
	"fmt"
	"math"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/metrics"
	"github.com/mmsim/staggered/internal/rng"
	"github.com/mmsim/staggered/internal/tertiary"
)

// Config parametrizes one simulation run.  The zero value is not
// runnable; use Table3Config for the paper's configuration.
type Config struct {
	// Farm geometry.
	D                 int // disks
	K                 int // stride
	CapacityFragments int // cylinders per disk

	// Database: Objects identical objects of Subobjects subobjects,
	// each declustered across M disks (single media type, Table 3).
	Objects    int
	Subobjects int
	M          int

	// Degrees optionally gives each object its own degree of
	// declustering (mixed media types, §3.2); when nil every object
	// uses M.  Only the striped engines support mixed degrees; VDR
	// rejects them at build.
	Degrees []int

	// Data rates: the effective per-disk bandwidth and the fixed
	// fragment size, which together set the time interval
	// T = FragmentBytes·8 / BDisk.
	BDisk         float64 // bits/second
	FragmentBytes float64

	// Tertiary device.
	Tertiary   tertiary.Spec
	TapeLayout tertiary.TapeLayout

	// Workload.
	Stations int
	DistMean float64
	Seed     uint64

	// Measurement.
	WarmupIntervals  int
	MeasureIntervals int

	// PreloadTop pre-places the most popular objects up to the farm's
	// capacity; 0 derives the count from the capacity.
	PreloadTop int

	// MaxStartup is the paper's Tmax: it bounds, in intervals, the
	// startup delay the staggered technique's Algorithm-1 admission
	// may accept (0 = twice the degree).
	MaxStartup int

	// Faults is an optional deterministic fault plan injected through
	// the engine's interval loop (DESIGN.md §10).  Nil or empty means a
	// fault-free run and provably costs nothing on the hot path.
	Faults *fault.Plan

	// PlaceRetryLimit caps how many times a materialization retries
	// core.Store.Place before it is abandoned and counted as starved
	// (with exponential backoff between attempts), so a k < M
	// exact-fit farm that cannot stage its catalog fails loudly instead
	// of livelocking (DESIGN.md §9).  0 selects DefaultPlaceRetryLimit.
	PlaceRetryLimit int

	// EvictionPressure lets a materialization that is about to exhaust
	// its Place retries evict replaceable cold residents beyond the
	// strict byte need, defragmenting an exact-fit farm instead of
	// starving.
	EvictionPressure bool

	// Cache configures the optional memory tier (DESIGN.md §12): a
	// popularity-aware prefix cache plus multicast stream sharing.
	// Nil or zero-valued disables it, and the disk-only path pays a
	// single nil check per hook — the golden dumps are pinned
	// byte-identical with the tier compiled in but disabled.
	Cache *cache.Spec

	// ZipfSkew, when positive, replaces the paper's truncated-geometric
	// object popularity with Zipf(theta): P(i) ∝ 1/(i+1)^theta over the
	// object catalog.  The cache experiments use it to model a hot head
	// hit by millions of users.  DistMean is ignored for draws (but
	// still validated/reported) when set.
	ZipfSkew float64

	// ArrivalsPerHour selects the workload.  Zero is the paper's
	// closed system with zero think time: a station issues its next
	// request the moment its display ends.  A positive rate is an open
	// one, and only cluster.New reads it: its driver draws a Poisson
	// stream at this rate and injects each arrival into a member, where
	// it occupies an idle station for its display; arrivals finding no
	// idle station are counted as OpenRejected.  Every engine build
	// refuses a positive rate (ErrOwnArrivals); a standalone open run
	// is a 1-member cluster.
	ArrivalsPerHour float64

	// ZipfFlipInterval, when positive, rotates the object-popularity
	// mapping by half the catalog at that absolute interval
	// (workload.Generator.FlipHalf): the hot head of the Zipf
	// distribution moves to previously cold objects mid-run, the
	// popularity-churn scenario the cache tier and the cluster's
	// popularity dispatch must re-converge under.  0 (the golden
	// configuration) never flips.
	ZipfFlipInterval int
}

// DefaultPlaceRetryLimit is the materialization retry cap a zero
// Config.PlaceRetryLimit selects.
const DefaultPlaceRetryLimit = 32

// faultHiccupLimit is how many consecutive degraded intervals a
// display rides out (hiccup-and-resync) before it is aborted.
const faultHiccupLimit = 2

// Table3Config returns the paper's §4.1 simulation configuration:
// 1000 disks at 20 mbps, stride 5, 2000 objects of 3000 subobjects at
// 100 mbps (M = 5), fragment = one 1.512 MB cylinder (interval
// 0.6048 s), one 40 mbps tertiary device.
func Table3Config(stations int, distMean float64, seed uint64) Config {
	return Config{
		D:                 1000,
		K:                 5,
		CapacityFragments: 3000,
		Objects:           2000,
		Subobjects:        3000,
		M:                 5,
		BDisk:             20e6,
		FragmentBytes:     1512000,
		Tertiary:          tertiary.Table3,
		TapeLayout:        tertiary.DiskMatched,
		Stations:          1,
		DistMean:          20,
		Seed:              seed,
		WarmupIntervals:   20000,
		MeasureIntervals:  60000,
	}.withWorkload(stations, distMean)
}

func (c Config) withWorkload(stations int, distMean float64) Config {
	c.Stations = stations
	c.DistMean = distMean
	return c
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	switch {
	case c.D <= 0:
		return fmt.Errorf("sched: D must be positive")
	case c.K < 1 || c.K > c.D:
		return fmt.Errorf("sched: stride %d out of range [1, %d]", c.K, c.D)
	case c.M < 1 || c.M > c.D:
		return fmt.Errorf("sched: M %d out of range [1, %d]", c.M, c.D)
	case c.CapacityFragments <= 0:
		return fmt.Errorf("sched: capacity must be positive")
	case c.Objects <= 0 || c.Subobjects <= 0:
		return fmt.Errorf("sched: database must be non-empty")
	case !(c.BDisk > 0) || math.IsInf(c.BDisk, 1):
		return fmt.Errorf("sched: disk bandwidth must be positive and finite")
	case !(c.FragmentBytes > 0) || math.IsInf(c.FragmentBytes, 1):
		return fmt.Errorf("sched: fragment size must be positive and finite")
	case c.Stations <= 0:
		return fmt.Errorf("sched: need at least one station")
	case !(c.DistMean > 1) || math.IsInf(c.DistMean, 1):
		return fmt.Errorf("sched: distribution mean must be finite and exceed 1")
	case c.MeasureIntervals <= 0:
		return fmt.Errorf("sched: measurement window must be positive")
	case c.WarmupIntervals < 0:
		return fmt.Errorf("sched: warmup must be non-negative")
	case c.MaxStartup < 0:
		return fmt.Errorf("sched: max startup must be non-negative")
	case c.PlaceRetryLimit < 0:
		return fmt.Errorf("sched: place retry limit must be non-negative")
	case !(c.ZipfSkew >= 0) || math.IsInf(c.ZipfSkew, 1):
		return fmt.Errorf("sched: zipf skew must be non-negative and finite")
	case !(c.ArrivalsPerHour >= 0) || math.IsInf(c.ArrivalsPerHour, 1):
		return fmt.Errorf("sched: arrival rate must be non-negative and finite")
	case c.ZipfFlipInterval < 0:
		return fmt.Errorf("sched: zipf flip interval must be non-negative")
	}
	if err := c.Faults.Validate(c.D); err != nil {
		return err
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if c.Degrees != nil {
		if len(c.Degrees) != c.Objects {
			return fmt.Errorf("sched: %d degrees for %d objects", len(c.Degrees), c.Objects)
		}
		for i, m := range c.Degrees {
			if m < 1 || m > c.D {
				return fmt.Errorf("sched: degree %d of object %d out of range [1, %d]", m, i, c.D)
			}
		}
	}
	return c.Tertiary.Validate()
}

// IntervalSeconds returns the duration of one time interval:
// FragmentBytes·8 / BDisk (0.6048 s for Table 3).
func (c Config) IntervalSeconds() float64 {
	return c.FragmentBytes * 8 / c.BDisk
}

// Degree returns the degree of declustering of object id.
func (c *Config) Degree(id int) int {
	if c.Degrees != nil {
		return c.Degrees[id]
	}
	return c.M
}

// maxStartup returns the startup-delay bound Tmax for an object of the
// given degree.  Zero MaxStartup selects twice the degree: each
// interval of startup delay costs one buffered fragment per early
// stream and stretches the disk reservation past the display length,
// so unbounded Tmax hurts more than queueing a little longer; a few
// interval-widths of headroom captures nearly all of Algorithm 1's
// benefit.
func (c *Config) maxStartup(degree int) int {
	if c.MaxStartup > 0 {
		return c.MaxStartup
	}
	return 2 * degree
}

// degreeRange returns the smallest and largest degree of declustering
// over the catalog and M.
func (c *Config) degreeRange() (lo, hi int) {
	lo, hi = c.M, c.M
	for _, m := range c.Degrees {
		lo, hi = min(lo, m), max(hi, m)
	}
	return lo, hi
}

// ObjectBits returns the size of one database object in bits:
// Subobjects × M fragments.
func (c Config) ObjectBits() float64 {
	return c.FragmentBytes * 8 * float64(c.M) * float64(c.Subobjects)
}

// objectBitsOf returns the size of object id in bits.
func (c Config) objectBitsOf(id int) float64 {
	return c.FragmentBytes * 8 * float64(c.Degree(id)) * float64(c.Subobjects)
}

// MaterializeIntervals returns the number of time intervals one
// materialization of a default-degree object occupies the tertiary
// device.
func (c Config) MaterializeIntervals() int {
	return c.materializeIntervalsFor(c.ObjectBits())
}

// MaterializeIntervalsOf returns the staging time of object id.
func (c Config) MaterializeIntervalsOf(id int) int {
	return c.materializeIntervalsFor(c.objectBitsOf(id))
}

func (c Config) materializeIntervalsFor(bits float64) int {
	secs := c.Tertiary.MaterializeSeconds(bits, c.TapeLayout, c.IntervalSeconds())
	iv := c.IntervalSeconds()
	n := int(secs / iv)
	if float64(n)*iv < secs {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// DefaultPreload returns how many of the most popular objects fit on
// the farm: floor(D·capacity / (M·N)).
func (c Config) DefaultPreload() int {
	perObject := c.M * c.Subobjects
	n := c.D * c.CapacityFragments / perObject
	if n > c.Objects {
		n = c.Objects
	}
	return n
}

// Popularity builds the object-popularity distribution c describes:
// Zipf(ZipfSkew) when ZipfSkew is positive, else the paper's geometric
// of mean DistMean truncated to the catalog.  A cluster builds it once
// and hands it to every member (TechniqueInfo.NewMember).
func (c Config) Popularity() (*rng.Discrete, error) {
	if c.ZipfSkew > 0 {
		return rng.Zipf(c.Objects, c.ZipfSkew)
	}
	return rng.TruncatedGeometric(c.Objects, c.DistMean)
}

// Result is the outcome of one run.
type Result = metrics.Run
