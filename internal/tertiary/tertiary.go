// Package tertiary models the tertiary storage device of the paper's
// architecture: the database lives permanently on tertiary store and
// objects are materialized onto the disk farm on demand (§1, §3.2.4).
//
// The device is sequential with a bandwidth far below an object's
// display bandwidth, so a display cannot be fed from tertiary
// directly.  §3.2.4 analyses the interaction of tape layout with the
// striped disk layout: a sequentially recorded object forces the tape
// head to reposition every time the disk target moves, while a tape
// recorded in disk-delivery order (fragment order) streams without
// repositioning.
package tertiary

import (
	"fmt"
	"math"
)

// TapeLayout selects how an object is recorded on tertiary store.
type TapeLayout int

const (
	// Sequential records the object in display order; materializing a
	// striped object then forces a head reposition per production
	// burst (§3.2.4's "layout mismatch").
	Sequential TapeLayout = iota
	// DiskMatched records the object in the order the disk farm
	// consumes it (X0.0, X0.1, X1.0, X1.1, ... for a 2-fragment
	// production cycle), so materialization streams at full bandwidth.
	DiskMatched
)

func (l TapeLayout) String() string {
	switch l {
	case Sequential:
		return "sequential"
	case DiskMatched:
		return "disk-matched"
	default:
		return fmt.Sprintf("TapeLayout(%d)", int(l))
	}
}

// Spec describes a tertiary device.
type Spec struct {
	Name       string
	Bandwidth  float64 // bits/second (Table 3: 40 mbps)
	Reposition float64 // head reposition time in seconds
}

// Table3 is the §4 simulation device: 40 mbps.  The paper gives no
// reposition figure; 5 s is representative of early-90s tape robotics
// and only matters for the Sequential layout ablation.
var Table3 = Spec{Name: "sim-tertiary", Bandwidth: 40e6, Reposition: 5.0}

// Validate reports whether the spec is sensible.
func (s Spec) Validate() error {
	if !(s.Bandwidth > 0) || math.IsInf(s.Bandwidth, 1) {
		return fmt.Errorf("tertiary: %s: bandwidth must be positive and finite", s.Name)
	}
	if !(s.Reposition >= 0) || math.IsInf(s.Reposition, 1) {
		return fmt.Errorf("tertiary: %s: reposition time must be non-negative and finite", s.Name)
	}
	return nil
}

// DisksOccupied returns the number of disk drives the device can feed
// concurrently while materializing: ceil(B_Tertiary / B_Disk).
// Table 3: ceil(40/20) = 2.
func (s Spec) DisksOccupied(bDisk float64) int {
	if bDisk <= 0 {
		panic("tertiary: non-positive disk bandwidth")
	}
	n := int(s.Bandwidth / bDisk)
	if float64(n)*bDisk < s.Bandwidth {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// MaterializeSeconds returns the time to materialize an object of the
// given size under the given tape layout.  intervalSeconds is the
// system time interval; with a Sequential tape each production burst
// of one interval is followed by a head reposition, so the effective
// bandwidth shrinks by interval/(interval+reposition).
func (s Spec) MaterializeSeconds(objectBits float64, layout TapeLayout, intervalSeconds float64) float64 {
	if objectBits < 0 {
		panic("tertiary: negative object size")
	}
	base := objectBits / s.Bandwidth
	switch layout {
	case DiskMatched:
		return base
	case Sequential:
		if intervalSeconds <= 0 {
			panic("tertiary: non-positive interval")
		}
		bursts := base / intervalSeconds
		return base + bursts*s.Reposition
	default:
		panic(fmt.Sprintf("tertiary: unknown layout %d", int(layout)))
	}
}

// Manager is the Tertiary Manager of the simulation model (§4.1): a
// FCFS queue of materialization requests with duplicate suppression —
// concurrent requests for the same object join the one in flight.
// The queued set is a dense slice over the catalog's ids, sized at
// build: the schedulers re-route every queued cold request each
// interval, so Request/Pending sit on their hot paths.
type Manager struct {
	// The FCFS queue is a head-indexed ring over one backing slice:
	// StartNext advances head instead of re-slicing, and Request
	// compacts the dead prefix before growing, so steady-state
	// traffic recycles one allocation instead of crawling the backing
	// array forward forever.
	queue    []int
	head     int
	queued   []bool
	inflight int // object id being materialized, or -1
	served   int
}

// NewManager returns an idle manager over object ids [0, n).
func NewManager(n int) *Manager {
	return &Manager{queued: make([]bool, n), inflight: -1}
}

// Request enqueues a materialization of object id.  It reports true
// when this call added new work (the object was neither queued nor in
// flight).
func (m *Manager) Request(id int) bool {
	if m.inflight == id || m.queued[id] {
		return false
	}
	m.queued[id] = true
	if len(m.queue) == cap(m.queue) && m.head > 0 {
		n := copy(m.queue, m.queue[m.head:])
		m.queue = m.queue[:n]
		m.head = 0
	}
	m.queue = append(m.queue, id)
	return true
}

// Busy reports whether a materialization is in flight.
func (m *Manager) Busy() bool { return m.inflight >= 0 }

// Inflight returns the object being materialized, or -1.
func (m *Manager) Inflight() int { return m.inflight }

// QueueLen returns the number of queued (not yet started) requests.
func (m *Manager) QueueLen() int { return len(m.queue) - m.head }

// StartNext dequeues the oldest request and marks it in flight.  It
// reports ok=false when the queue is empty or a materialization is
// already running.
func (m *Manager) StartNext() (id int, ok bool) {
	if m.inflight >= 0 || m.head == len(m.queue) {
		return -1, false
	}
	id = m.queue[m.head]
	m.head++
	if m.head == len(m.queue) {
		m.queue, m.head = m.queue[:0], 0
	}
	m.queued[id] = false
	m.inflight = id
	return id, true
}

// Finish completes the in-flight materialization.
func (m *Manager) Finish() (id int, err error) {
	if m.inflight < 0 {
		return -1, fmt.Errorf("tertiary: Finish with nothing in flight")
	}
	id = m.inflight
	m.inflight = -1
	m.served++
	return id, nil
}

// Served returns the number of completed materializations.
func (m *Manager) Served() int { return m.served }

// Abort drops the in-flight materialization without counting it.
func (m *Manager) Abort() {
	m.inflight = -1
}

// Reset drops the in-flight materialization and every queued request,
// keeping only the served total — the state a server restart after a
// whole-member kill wants: cold queue, history intact.
func (m *Manager) Reset() {
	m.inflight = -1
	m.queue = m.queue[:0]
	m.head = 0
	clear(m.queued)
}

// Pending reports whether id is queued or in flight.
func (m *Manager) Pending(id int) bool {
	return m.inflight == id || m.queued[id]
}
