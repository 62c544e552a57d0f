package sched

import (
	"errors"
	"fmt"
)

// ErrOwnArrivals refuses an engine build whose Config has a positive
// ArrivalsPerHour: an engine draws no open arrivals of its own.  Run
// an open workload through cluster.New, whose driver draws the Poisson
// stream and injects it into members (a standalone open run is a
// 1-member cluster).
var ErrOwnArrivals = errors.New("sched: an engine draws no open arrivals; run ArrivalsPerHour > 0 through cluster.New")

// ErrAlreadyRun is returned by RunChecked when the engine has already
// been run (or primed and stepped): an Engine is single-use, and a
// cluster driver retrying a member must build a fresh one instead.
var ErrAlreadyRun = errors.New("sched: engine already run")

// The misuses of the failover surface (Engine.Kill, Engine.Revive) and
// of a member's queue entry point (Engine.InjectArrival).  Each is
// returned as is, or wrapped with detail, so errors.Is matches.
var (
	// ErrKillDead: Kill on an engine that is already dead.
	ErrKillDead = errors.New("sched: Kill on a dead engine")
	// ErrKillClosedLoop: Kill on a closed-loop engine, whose aborted
	// stations would reissue forever.
	ErrKillClosedLoop = errors.New("sched: Kill on a closed-loop engine")
	// ErrReviveLive: Revive on an engine that is not dead.
	ErrReviveLive = errors.New("sched: Revive on a live engine")
	// ErrInjectClosedLoop: InjectArrival on a closed-loop engine, whose
	// stations issue their own requests.
	ErrInjectClosedLoop = errors.New("sched: InjectArrival on a closed-loop engine")
	// ErrInjectDead: InjectArrival on a killed engine.
	ErrInjectDead = errors.New("sched: InjectArrival on a dead engine")
	// ErrInjectObject: InjectArrival for an object outside the catalog,
	// wrapped with the object id.
	ErrInjectObject = errors.New("sched: InjectArrival object out of range")
)

// StarvationError reports that materializations were abandoned at the
// Place retry cap (Config.PlaceRetryLimit): the farm could not fit
// the objects the workload demanded, typically because a k < M stride
// fragments an exact-fit farm (DESIGN.md §9).  Returned by
// Engine.RunChecked so zero-display sweeps fail loudly; the run's
// Result remains valid.
type StarvationError struct {
	Technique string
	K, M      int
	Starved   int  // materializations abandoned over the whole run
	Displays  int  // displays completed in the measurement window
	Pressure  bool // the run had Config.EvictionPressure on
}

// Error advises only the remedies the run did not already use.
func (e *StarvationError) Error() string {
	advice := "raise capacity, enable EvictionPressure, or use k >= M"
	if e.Pressure {
		advice = "raise capacity or use k >= M"
	}
	return fmt.Sprintf("sched: %s (M=%d): %d materializations starved at the Place retry cap (%d displays completed); the farm cannot fit the working set — %s",
		e.Technique, e.M, e.Starved, e.Displays, advice)
}
