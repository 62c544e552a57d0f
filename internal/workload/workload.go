// Package workload implements the §4.1 workload model: a closed
// system of display stations, each displaying one object at a time,
// issuing its next request the moment the previous display completes
// (zero think time), with object popularity drawn from a truncated
// geometric distribution.
package workload

import (
	"fmt"

	"github.com/mmsim/staggered/internal/rng"
)

// PaperMeans are the three geometric means evaluated in §4: highly
// skewed, skewed, and (approximately) uniform.
var PaperMeans = []float64{10, 20, 43.5}

// PaperStations are the station counts the paper sweeps (1 to 256);
// Table 4 reports 16, 64, 128, and 256.
var PaperStations = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// MeanLabel returns the paper's label for a distribution mean.
func MeanLabel(mean float64) string {
	switch mean {
	case 10:
		return "highly skewed"
	case 20:
		return "skewed"
	case 43.5:
		return "uniform"
	default:
		return fmt.Sprintf("geometric mean %v", mean)
	}
}

// Generator draws object references for each display station from a
// shared popularity distribution, with an independent random stream
// per station so that adding stations never perturbs the reference
// string of existing ones.
// The streams live in one dense slice (not per-station pointers) so a
// 20k-station run walks contiguous memory instead of chasing 20k heap
// objects.
type Generator struct {
	dist    *rng.Discrete
	streams []rng.Stream
}

// NewGenerator builds a generator for the given number of stations
// over a catalog of n objects with geometric popularity of the given
// mean (object 0 most popular).
func NewGenerator(src *rng.Source, n int, mean float64, stations int) (*Generator, error) {
	dist, err := rng.TruncatedGeometric(n, mean)
	if err != nil {
		return nil, err
	}
	return NewGeneratorDist(src, dist, stations)
}

// NewGeneratorDist builds a generator over an explicit popularity
// distribution (e.g. rng.Zipf for the cache experiments' hot-head
// workloads).  The distribution must be monotone non-increasing in
// object id for TopObjects to stay meaningful; rng's constructors all
// are.
func NewGeneratorDist(src *rng.Source, dist *rng.Discrete, stations int) (*Generator, error) {
	if stations <= 0 {
		return nil, fmt.Errorf("workload: need at least one station, got %d", stations)
	}
	g := &Generator{dist: dist, streams: make([]rng.Stream, stations)}
	for i := range g.streams {
		g.streams[i] = *src.StreamN("station", i)
	}
	return g, nil
}

// Draw returns the next object reference of the given station.
func (g *Generator) Draw(station int) int { return g.dist.Sample(&g.streams[station]) }

// TopObjects returns the ids of the n most popular objects (which,
// with a monotone geometric distribution, are simply 0..n-1).
func (g *Generator) TopObjects(n int) []int {
	if n > g.dist.Len() {
		n = g.dist.Len()
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// Stations tracks the closed-loop state: each station is either
// waiting for a display (has an outstanding request) or ready to issue
// its next one.  The request itself, its object and arrival, is the
// engine's to keep, and so is the draw that chose the object.
type Stations struct {
	busy  []bool
	total int
}

// NewStations returns closed-loop state over n idle stations.
func NewStations(n int) *Stations {
	return &Stations{busy: make([]bool, n)}
}

// Take marks station s busy with a new request.  A station must not
// have two outstanding requests.
func (s *Stations) Take(station int) {
	if s.busy[station] {
		panic(fmt.Sprintf("workload: station %d already has an outstanding request", station))
	}
	s.busy[station] = true
	s.total++
}

// Complete marks station s idle again (its display finished).
func (s *Stations) Complete(station int) {
	if !s.busy[station] {
		panic(idleStation(station))
	}
	s.busy[station] = false
}

// idleStation is the panic of a Complete on a station with no request
// outstanding.  A panic value that formats itself only when printed
// keeps Complete within the inliner's budget.
type idleStation int

func (s idleStation) Error() string {
	return fmt.Sprintf("workload: station %d has no outstanding request", int(s))
}

// Busy reports whether station s has a request outstanding.
func (s *Stations) Busy(station int) bool { return s.busy[station] }

// Outstanding returns the number of stations with requests in flight.
func (s *Stations) Outstanding() int {
	n := 0
	for _, b := range s.busy {
		if b {
			n++
		}
	}
	return n
}

// TotalIssued returns the number of requests issued so far.
func (s *Stations) TotalIssued() int { return s.total }
