// Package fault defines deterministic fault plans for the simulation
// engines: disk failures (one-shot or a seeded MTTF/MTTR repair
// process), transient slow-disk windows, and tertiary-device outages.
//
// A Plan is a pure schedule: building one performs no I/O and draws
// any randomness (the repair process) from a named rng stream at build
// time, so the same plan arguments always compile to the same event
// sequence and a faulted run is exactly as reproducible as a clean
// one.  Plans are immutable once handed to an engine and may be shared
// by concurrent runs; each engine keeps its own cursor.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/mmsim/staggered/internal/rng"
)

// Kind classifies one fault event.
type Kind int

const (
	// DiskFail takes a disk out of service at Event.At.
	DiskFail Kind = iota
	// DiskRepair returns a failed disk to service.  The model is a
	// transient outage: the disk's contents survive the failure (a
	// controller or path fault, not a media loss).
	DiskRepair
	// SlowStart begins a latency-inflation window on a disk: reads
	// keep completing but every interval they serve a display counts a
	// degraded hiccup.
	SlowStart
	// SlowEnd closes a latency-inflation window.
	SlowEnd
	// TertiaryFail takes the tertiary device offline; an in-flight
	// materialization is abandoned and no new staging starts.
	TertiaryFail
	// TertiaryRepair returns the tertiary device to service.
	TertiaryRepair
	// ServerFail kills a whole cluster member at Event.At: its
	// in-flight displays abort, its queue drains to the survivors, and
	// it stops stepping.  Event.Disk holds the member index.  Server
	// events are cluster-scope: they are rejected by Validate (a member
	// engine cannot execute them) and are split out of a mixed plan by
	// SplitServerScope.
	ServerFail
	// ServerRepair restarts a killed member with cold caches.
	ServerRepair
)

func (k Kind) String() string {
	switch k {
	case DiskFail:
		return "disk-fail"
	case DiskRepair:
		return "disk-repair"
	case SlowStart:
		return "slow-start"
	case SlowEnd:
		return "slow-end"
	case TertiaryFail:
		return "tertiary-fail"
	case TertiaryRepair:
		return "tertiary-repair"
	case ServerFail:
		return "server-fail"
	case ServerRepair:
		return "server-repair"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled state change.
type Event struct {
	At   int // interval at which the change takes effect
	Kind Kind
	Disk int // disk index; -1 for tertiary events
}

// Plan is a buildable schedule of fault events.  The zero value and
// nil are both valid empty plans.
type Plan struct {
	events []Event
	// err is the first builder call that could not schedule its
	// events (a wear process with an invalid mean); Validate and
	// ValidateServers return it.
	err error
}

// ErrWearMean is the build error of a wear process whose mean time to
// failure or to repair is not positive and finite.
var ErrWearMean = errors.New("fault: wear means must be positive and finite")

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{} }

// Empty reports whether the plan schedules no events and holds no
// build error, so a caller may skip it.
func (p *Plan) Empty() bool { return p == nil || len(p.events) == 0 && p.err == nil }

// FailDisk schedules a permanent failure of disk at interval at.
func (p *Plan) FailDisk(disk, at int) *Plan {
	p.events = append(p.events, Event{At: at, Kind: DiskFail, Disk: disk})
	return p
}

// FailDiskUntil schedules a failure of disk at interval at with a
// repair at interval repairAt.
func (p *Plan) FailDiskUntil(disk, at, repairAt int) *Plan {
	p.FailDisk(disk, at)
	p.events = append(p.events, Event{At: repairAt, Kind: DiskRepair, Disk: disk})
	return p
}

// SlowDisk schedules a latency-inflation window [at, until) on disk.
func (p *Plan) SlowDisk(disk, at, until int) *Plan {
	p.events = append(p.events,
		Event{At: at, Kind: SlowStart, Disk: disk},
		Event{At: until, Kind: SlowEnd, Disk: disk})
	return p
}

// TertiaryOutage schedules a tertiary-device outage [at, until).
func (p *Plan) TertiaryOutage(at, until int) *Plan {
	p.events = append(p.events,
		Event{At: at, Kind: TertiaryFail, Disk: -1},
		Event{At: until, Kind: TertiaryRepair, Disk: -1})
	return p
}

// FailServer schedules a permanent kill of cluster member at interval
// at.
func (p *Plan) FailServer(member, at int) *Plan {
	p.events = append(p.events, Event{At: at, Kind: ServerFail, Disk: member})
	return p
}

// FailServerUntil schedules a kill of cluster member at interval at
// with a cold restart at interval restartAt.
func (p *Plan) FailServerUntil(member, at, restartAt int) *Plan {
	p.FailServer(member, at)
	p.events = append(p.events, Event{At: restartAt, Kind: ServerRepair, Disk: member})
	return p
}

// ServerWearProcess schedules an alternating kill/restart process on
// each of the given cluster members up to the horizon, exactly as
// WearProcess does for disks but at member granularity, drawn from a
// per-member "fault-server-wear" stream so server wear never perturbs
// a coexisting disk wear process built from the same seed.
func (p *Plan) ServerWearProcess(members []int, mttf, mttr float64, horizon int, seed uint64) *Plan {
	return p.wear("fault-server-wear", ServerFail, ServerRepair, members, mttf, mttr, horizon, seed)
}

// WearProcess schedules an alternating failure/repair process on each
// of the given disks up to the horizon: times to failure and to repair
// are exponentially distributed with means mttf and mttr (in
// intervals), drawn from a per-disk stream of the given seed.  The
// last failure before the horizon may go unrepaired.  A mean that is
// not positive and finite schedules nothing: the plan keeps
// ErrWearMean, and its validation returns it.
func (p *Plan) WearProcess(disks []int, mttf, mttr float64, horizon int, seed uint64) *Plan {
	return p.wear("fault-wear", DiskFail, DiskRepair, disks, mttf, mttr, horizon, seed)
}

// wear appends one alternating fail/repair process per target, each
// drawn from its own substream of the named stream.  Both means must
// be positive and finite; otherwise it schedules nothing and records
// ErrWearMean on the plan, unless an earlier build error is there.
func (p *Plan) wear(stream string, fail, repair Kind, targets []int, mttf, mttr float64, horizon int, seed uint64) *Plan {
	if !validMean(mttf) || !validMean(mttr) {
		if p.err == nil {
			p.err = fmt.Errorf("%w: %v mttf %v, mttr %v", ErrWearMean, fail, mttf, mttr)
		}
		return p
	}
	src := rng.NewSource(seed)
	for _, id := range targets {
		s := src.StreamN(stream, id)
		t := 0
		for {
			if t = advance(t, s.Exp(mttf), horizon); t >= horizon {
				break
			}
			p.events = append(p.events, Event{At: t, Kind: fail, Disk: id})
			if t = advance(t, s.Exp(mttr), horizon); t >= horizon {
				break
			}
			p.events = append(p.events, Event{At: t, Kind: repair, Disk: id})
		}
	}
	return p
}

func validMean(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// advance moves t on by a drawn duration of at least one interval,
// saturating at the horizon so a draw beyond the int range can neither
// wrap nor overflow.
func advance(t int, x float64, horizon int) int {
	if x >= float64(horizon-t) {
		return horizon
	}
	if x < 1 {
		return t + 1
	}
	return t + int(x)
}

// Events returns the schedule sorted by time (insertion order within a
// tick).  The returned slice is a copy; the plan itself is never
// mutated after building, so concurrent engines may share it.
func (p *Plan) Events() []Event {
	if p.Empty() {
		return nil
	}
	out := make([]Event, len(p.events))
	copy(out, p.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Validate checks the plan against a farm of d disks, after returning
// any build error.
func (p *Plan) Validate(d int) error {
	if p.Empty() {
		return nil
	}
	if p.err != nil {
		return p.err
	}
	for _, ev := range p.events {
		if ev.At < 0 {
			return fmt.Errorf("fault: event %v %d at negative interval %d", ev.Kind, ev.Disk, ev.At)
		}
		switch ev.Kind {
		case TertiaryFail, TertiaryRepair:
			if ev.Disk != -1 {
				return fmt.Errorf("fault: tertiary event with disk %d", ev.Disk)
			}
		case ServerFail, ServerRepair:
			return fmt.Errorf("fault: server-scope event %v %d in a member plan (split with SplitServerScope)", ev.Kind, ev.Disk)
		default:
			if ev.Disk < 0 || ev.Disk >= d {
				return fmt.Errorf("fault: disk %d out of range [0, %d)", ev.Disk, d)
			}
		}
	}
	return nil
}

// ValidateServers checks a server-scope plan against a cluster of n
// members: every event must be a server kill or restart of a member in
// [0, n).  A build error comes first.
func (p *Plan) ValidateServers(n int) error {
	if p.Empty() {
		return nil
	}
	if p.err != nil {
		return p.err
	}
	for _, ev := range p.events {
		if ev.At < 0 {
			return fmt.Errorf("fault: event %v %d at negative interval %d", ev.Kind, ev.Disk, ev.At)
		}
		switch ev.Kind {
		case ServerFail, ServerRepair:
			if ev.Disk < 0 || ev.Disk >= n {
				return fmt.Errorf("fault: server %d out of range [0, %d)", ev.Disk, n)
			}
		default:
			return fmt.Errorf("fault: %v event in a server plan (split with SplitServerScope)", ev.Kind)
		}
	}
	return nil
}

// SplitServerScope partitions the plan into its member-scope part
// (disk and tertiary events, runnable by every engine) and its
// server-scope part (whole-member kills and restarts, executed by the
// cluster layer).  Insertion order is preserved within each part; the
// receiver is not mutated.  Either part may be empty.  A build error
// goes with both parts, so whichever is validated reports it.
func (p *Plan) SplitServerScope() (member, server *Plan) {
	member, server = NewPlan(), NewPlan()
	if p.Empty() {
		return member, server
	}
	member.err, server.err = p.err, p.err
	for _, ev := range p.events {
		switch ev.Kind {
		case ServerFail, ServerRepair:
			server.events = append(server.events, ev)
		default:
			member.events = append(member.events, ev)
		}
	}
	return member, server
}
