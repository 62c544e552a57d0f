// Package playback implements §3.2.5 of the paper: rewind,
// fast-forward, and fast-forward-with-scan on a staggered-striped
// farm.
//
// Plain rewind and fast-forward (no images shown) reposition the
// display: either the disks currently serving the request rotate
// until they align with the target subobject, or — if the disks
// holding the target are idle — the display restarts there
// immediately.  Fast-forward WITH scan must display data while
// consuming it 16× faster than the layout delivers it, so each object
// carries a small fast-forward replica (roughly every sixteenth
// frame) laid out like any other object; scanning switches the
// display onto the replica and back, possibly paying a transfer
// initiation delay when the replica's disks are busy.
package playback

import (
	"fmt"

	"github.com/mmsim/staggered/internal/core"
)

// Mode is the playback state of a session.
type Mode int

const (
	// Playing displays the normal-speed object.
	Playing Mode = iota
	// Scanning displays the fast-forward replica.
	Scanning
	// Waiting is a repositioning stall (disks not yet aligned); the
	// viewer sees no data but, per the paper, no hiccup either since
	// nothing is being displayed.
	Waiting
	// Done means the display has completed.
	Done
)

func (m Mode) String() string {
	switch m {
	case Playing:
		return "playing"
	case Scanning:
		return "scanning"
	case Waiting:
		return "waiting"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DefaultScanRatio is the paper's VHS-style example: "typical fast
// forward scans of VHS video display approximately every sixteenth
// frame".
const DefaultScanRatio = 16

// ReplicaSubobjects returns the length of the fast-forward replica of
// an n-subobject object at the given scan ratio.
func ReplicaSubobjects(n, ratio int) int {
	if n <= 0 || ratio <= 0 {
		panic("playback: non-positive n or ratio")
	}
	r := n / ratio
	if n%ratio != 0 {
		r++
	}
	if r < 1 {
		r = 1
	}
	return r
}

// ReplicaOverheadFraction returns the extra storage the fast-forward
// replicas cost: about 1/ratio of the database.
func ReplicaOverheadFraction(ratio int) float64 {
	if ratio <= 0 {
		panic("playback: non-positive ratio")
	}
	return 1 / float64(ratio)
}

// FreeFunc reports whether a physical disk is idle this interval; the
// scheduler owning the farm supplies it.
type FreeFunc func(disk int) bool

// Session is one viewer's playback over an object and its
// fast-forward replica.  The session is advanced one time interval at
// a time with Tick; mode changes take effect at the next interval
// boundary, as all scheduling in the paper does.
type Session struct {
	normal  core.Placement
	replica core.Placement
	ratio   int

	mode Mode
	pos  int // next normal-scale subobject to display
	rpos int // next replica subobject while scanning

	// wait bookkeeping
	waitLeft  int  // intervals until rotation alignment
	resumeTo  Mode // mode to enter when the wait ends
	switchLag int  // accumulated transfer-initiation delay intervals
	played    int  // normal subobjects displayed
	scanned   int  // replica subobjects displayed
}

// NewSession validates the object/replica pair and returns a session
// positioned at the start, Playing.
func NewSession(normal, replica core.Placement, ratio int) (*Session, error) {
	if ratio <= 0 {
		return nil, fmt.Errorf("playback: scan ratio must be positive, got %d", ratio)
	}
	if normal.N <= 0 || replica.N <= 0 {
		return nil, fmt.Errorf("playback: object (%d subobjects) and replica (%d) must each hold at least one", normal.N, replica.N)
	}
	if normal.Layout != replica.Layout {
		return nil, fmt.Errorf("playback: object and replica live on different layouts")
	}
	want := ReplicaSubobjects(normal.N, ratio)
	if replica.N < want {
		return nil, fmt.Errorf("playback: replica has %d subobjects, needs at least %d for ratio %d",
			replica.N, want, ratio)
	}
	return &Session{normal: normal, replica: replica, ratio: ratio}, nil
}

// Mode returns the session's current mode.
func (s *Session) Mode() Mode { return s.mode }

// Position returns the next normal-scale subobject to display.
func (s *Session) Position() int {
	if s.mode == Scanning {
		return s.rpos * s.ratio
	}
	return s.pos
}

// SwitchLag returns the total transfer-initiation delay in intervals
// incurred by mode switches and seeks so far.
func (s *Session) SwitchLag() int { return s.switchLag }

// Played and Scanned return the subobjects displayed in each mode.
func (s *Session) Played() int  { return s.played }
func (s *Session) Scanned() int { return s.scanned }

// alignmentWait returns the number of intervals until the disk set
// currently serving position from aligns with position to (both in
// the placement's subobject scale): the paper's "waiting for the set
// of disks servicing the request to advance to the appropriate
// position".  Both the serving set and the data advance k disks per
// interval, so the wait is the subobject distance modulo the start
// disk orbit.
func alignmentWait(p core.Placement, from, to int) int {
	orbit := p.Layout.StartDiskOrbit()
	return ((to-from)%orbit + orbit) % orbit
}

// spanFree reports whether the disks of subobject sub are all idle.
func spanFree(p core.Placement, sub int, free FreeFunc) bool {
	for i := 0; i < p.M; i++ {
		if !free(p.Layout.Disk(p.First, sub, i)) {
			return false
		}
	}
	return true
}

// Seek repositions the session to normal-scale subobject target.  If
// the target's disks are idle the display resumes there at the next
// interval; otherwise the session waits for rotational alignment.
// Seeking backward is rewind, forward is fast-forward without scan —
// the mechanics are identical (§3.2.5).
func (s *Session) Seek(target int, free FreeFunc) error {
	if s.mode == Done {
		return fmt.Errorf("playback: seek after completion")
	}
	if target < 0 || target >= s.normal.N {
		return fmt.Errorf("playback: seek target %d out of range [0, %d)", target, s.normal.N)
	}
	cur := s.Position()
	s.pos = target
	if spanFree(s.normal, target, free) {
		// Idle disks at the target: start immediately next interval.
		s.mode = Playing
		s.waitLeft = 0
		return nil
	}
	s.mode = Waiting
	s.resumeTo = Playing
	s.waitLeft = alignmentWait(s.normal, cur, target)
	if s.waitLeft == 0 {
		s.waitLeft = s.normal.Layout.StartDiskOrbit() // full rotation
	}
	return nil
}

// StartScan switches to fast-forward with scan: the display continues
// from the replica subobject covering the current position.  If the
// replica's disks are busy the switch costs a transfer-initiation
// delay (the paper: "the system may incur a transfer initiation delay
// when switching to the fast forward replica").
func (s *Session) StartScan(free FreeFunc) error {
	if s.mode == Done {
		return fmt.Errorf("playback: scan after completion")
	}
	if s.mode == Scanning {
		return nil
	}
	s.rpos = s.pos / s.ratio
	if s.rpos >= s.replica.N {
		s.rpos = s.replica.N - 1
	}
	if spanFree(s.replica, s.rpos, free) {
		s.mode = Scanning
		s.waitLeft = 0
		return nil
	}
	s.mode = Waiting
	s.resumeTo = Scanning
	s.waitLeft = alignmentWait(s.replica, s.rpos, s.rpos) // full orbit below
	if s.waitLeft == 0 {
		s.waitLeft = 1 // at least one interval to re-arbitrate
	}
	return nil
}

// StopScan returns to normal-speed play at the scan position, again
// possibly paying an initiation delay.  "Exact synchronous delivery
// is not expected when switching between normal speed delivery and
// fast forward scanning."
func (s *Session) StopScan(free FreeFunc) error {
	if s.mode != Scanning && !(s.mode == Waiting && s.resumeTo == Scanning) {
		return fmt.Errorf("playback: not scanning")
	}
	target := s.rpos * s.ratio
	if target >= s.normal.N {
		s.mode = Done
		return nil
	}
	return s.Seek(target, free)
}

// Tick advances one time interval.  It returns the subobject
// displayed this interval in normal scale, or -1 when nothing was
// shown (waiting or done).
func (s *Session) Tick(free FreeFunc) (int, error) {
	switch s.mode {
	case Done:
		return -1, fmt.Errorf("playback: tick after completion")
	case Waiting:
		s.switchLag++
		s.waitLeft--
		if s.waitLeft <= 0 {
			s.mode = s.resumeTo
		}
		return -1, nil
	case Playing:
		shown := s.pos
		s.pos++
		s.played++
		if s.pos >= s.normal.N {
			s.mode = Done
		}
		return shown, nil
	case Scanning:
		shown := s.rpos * s.ratio
		s.rpos++
		s.scanned++
		if s.rpos >= s.replica.N {
			s.mode = Done
		}
		return shown, nil
	default:
		return -1, fmt.Errorf("playback: invalid mode %v", s.mode)
	}
}
