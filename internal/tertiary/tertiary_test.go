package tertiary

import (
	"math"
	"slices"
	"testing"
)

func TestSpecValidate(t *testing.T) {
	if err := Table3.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Spec{Name: "bad", Bandwidth: 0}).Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if err := (Spec{Name: "bad", Bandwidth: 1, Reposition: -1}).Validate(); err == nil {
		t.Error("negative reposition accepted")
	}
	for _, s := range []Spec{
		{Name: "bad", Bandwidth: math.NaN()},
		{Name: "bad", Bandwidth: math.Inf(1)},
		{Name: "bad", Bandwidth: 1, Reposition: math.NaN()},
		{Name: "bad", Bandwidth: 1, Reposition: math.Inf(1)},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("non-finite spec accepted: %+v", s)
		}
	}
}

func TestDisksOccupied(t *testing.T) {
	cases := []struct {
		tert, disk float64
		want       int
	}{
		{40e6, 20e6, 2}, // Table 3 / §3.2.4 example
		{40e6, 30e6, 2},
		{40e6, 40e6, 1},
		{40e6, 50e6, 1},
		{10e6, 20e6, 1},
	}
	for _, c := range cases {
		s := Spec{Name: "t", Bandwidth: c.tert}
		if got := s.DisksOccupied(c.disk); got != c.want {
			t.Errorf("DisksOccupied(%v/%v) = %d, want %d", c.tert, c.disk, got, c.want)
		}
	}
}

// TestTable3MaterializationTime checks the headline cost: a Table 3
// object (3000 subobjects × 5 fragments × 1.512 MB = 181,440 mbits)
// takes 4536 s through the 40 mbps device with a matched tape.
func TestTable3MaterializationTime(t *testing.T) {
	objectBits := 3000.0 * 5 * 1512000 * 8
	got := Table3.MaterializeSeconds(objectBits, DiskMatched, 0.6048)
	if math.Abs(got-4536) > 1 {
		t.Fatalf("materialization = %v s, want ~4536", got)
	}
}

// TestSequentialLayoutPenalty checks §3.2.4: with a sequential tape
// the device spends "a major fraction of its time repositioning its
// head (wasteful work) instead of producing data".
func TestSequentialLayoutPenalty(t *testing.T) {
	objectBits := 1000 * 0.6048 * 40e6 // 1000 production bursts
	matched := Table3.MaterializeSeconds(objectBits, DiskMatched, 0.6048)
	seq := Table3.MaterializeSeconds(objectBits, Sequential, 0.6048)
	if seq <= matched {
		t.Fatalf("sequential (%v) not slower than matched (%v)", seq, matched)
	}
	// With a 5 s reposition per 0.6 s burst, almost 90% of the time is
	// repositioning.
	wasted := (seq - matched) / seq
	if wasted < 0.85 {
		t.Fatalf("wasted fraction = %v, want the reposition to dominate", wasted)
	}
}

func TestMaterializeSecondsEdgeCases(t *testing.T) {
	if got := Table3.MaterializeSeconds(0, DiskMatched, 1); got != 0 {
		t.Errorf("zero-size object took %v s", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative size did not panic")
			}
		}()
		Table3.MaterializeSeconds(-1, DiskMatched, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero interval with sequential layout did not panic")
			}
		}()
		Table3.MaterializeSeconds(1, Sequential, 0)
	}()
}

func TestManagerFCFSAndDedup(t *testing.T) {
	m := NewManager(100)
	if m.inflight >= 0 || len(m.queue)-m.head != 0 {
		t.Fatal("new manager not idle")
	}
	if !m.Request(5) {
		t.Fatal("first request not new")
	}
	if m.Request(5) {
		t.Fatal("duplicate queued request reported new")
	}
	if !m.Request(9) || !m.Request(2) {
		t.Fatal("distinct requests rejected")
	}
	if n := len(m.queue) - m.head; n != 3 {
		t.Fatalf("queue length = %d, want 3", n)
	}

	id, ok := m.StartNext()
	if !ok || id != 5 {
		t.Fatalf("StartNext = %d,%v, want 5 (FCFS)", id, ok)
	}
	if m.inflight != 5 {
		t.Fatal("in-flight state wrong")
	}
	if m.Request(5) {
		t.Fatal("request for in-flight object reported new")
	}
	if !m.Pending(5) || !m.Pending(9) || m.Pending(7) {
		t.Fatal("Pending wrong")
	}
	if _, ok := m.StartNext(); ok {
		t.Fatal("StartNext while busy succeeded")
	}

	done, err := m.Finish()
	if err != nil || done != 5 {
		t.Fatalf("Finish = %d,%v", done, err)
	}
	if _, err := m.Finish(); err == nil {
		t.Fatal("Finish while idle succeeded")
	}

	id, ok = m.StartNext()
	if !ok || id != 9 {
		t.Fatalf("second StartNext = %d,%v, want 9", id, ok)
	}
	m.Abort()
	if m.inflight >= 0 {
		t.Fatal("Abort did not reset in-flight")
	}
	id, ok = m.StartNext()
	if !ok || id != 2 {
		t.Fatalf("third StartNext = %d,%v, want 2", id, ok)
	}
}

// Property: a request becomes new again once the object has been both
// dequeued and finished.
func TestManagerRequeueAfterFinish(t *testing.T) {
	m := NewManager(100)
	m.Request(1)
	if id, ok := m.StartNext(); !ok || id != 1 {
		t.Fatal("start failed")
	}
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	if !m.Request(1) {
		t.Fatal("re-request after finish not accepted as new")
	}
}

// drainOrder starts and finishes every queued request and returns the
// ids in the order the device served them.
func drainOrder(t *testing.T, m *Manager) []int {
	t.Helper()
	var order []int
	for {
		id, ok := m.StartNext()
		if !ok {
			return order
		}
		order = append(order, id)
		if _, err := m.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestManagerRepeatRequestIsNoOp pins what the striped admission's
// cold-request events rely on: a Request for an id that is queued or
// in flight returns false and leaves the queue exactly as it was, so
// re-requesting a still-pending object every interval changes nothing.
func TestManagerRepeatRequestIsNoOp(t *testing.T) {
	m := NewManager(100)
	for _, id := range []int{4, 1, 7, 3} {
		m.Request(id)
	}
	if id, ok := m.StartNext(); !ok || id != 4 {
		t.Fatalf("StartNext = %d,%v, want 4", id, ok)
	}
	for _, id := range []int{3, 4, 1, 7, 4, 3} {
		if m.Request(id) {
			t.Fatalf("Request(%d) on a pending id reported new work", id)
		}
		if !m.Pending(id) {
			t.Fatalf("Pending(%d) = false after a no-op Request", id)
		}
	}
	if n := len(m.queue) - m.head; n != 3 || m.inflight != 4 {
		t.Fatalf("queue length %d, in flight %d; want 3 and 4", n, m.inflight)
	}
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	if got, want := drainOrder(t, m), []int{1, 7, 3}; !slices.Equal(got, want) {
		t.Fatalf("served %v after repeat requests, want %v", got, want)
	}
}

// TestManagerRequestAfterDropAppendsAtTail pins the other half: once
// the device drops a request (Abort of the in-flight one, or Reset of
// everything), the id is no longer pending, and a new Request appends
// it at the tail of the FCFS queue.
func TestManagerRequestAfterDropAppendsAtTail(t *testing.T) {
	m := NewManager(100)
	for _, id := range []int{5, 2, 8} {
		m.Request(id)
	}
	if id, _ := m.StartNext(); id != 5 {
		t.Fatalf("StartNext = %d, want 5", id)
	}
	m.Abort()
	if m.Pending(5) {
		t.Fatal("aborted id still pending")
	}
	if !m.Request(5) {
		t.Fatal("Request after Abort not accepted as new")
	}
	if got, want := drainOrder(t, m), []int{2, 8, 5}; !slices.Equal(got, want) {
		t.Fatalf("served %v after Abort, want %v", got, want)
	}

	for _, id := range []int{6, 9, 1} {
		m.Request(id)
	}
	if id, _ := m.StartNext(); id != 6 {
		t.Fatalf("StartNext = %d, want 6", id)
	}
	m.Reset()
	for _, id := range []int{6, 9, 1} {
		if m.Pending(id) {
			t.Fatalf("id %d still pending after Reset", id)
		}
	}
	m.Request(3)
	for _, id := range []int{1, 6} {
		if !m.Request(id) {
			t.Fatalf("Request(%d) after Reset not accepted as new", id)
		}
	}
	if got, want := drainOrder(t, m), []int{3, 1, 6}; !slices.Equal(got, want) {
		t.Fatalf("served %v after Reset, want %v", got, want)
	}
}

func BenchmarkManagerCycle(b *testing.B) {
	m := NewManager(100)
	for i := 0; i < b.N; i++ {
		m.Request(i % 100)
		if _, ok := m.StartNext(); ok {
			if _, err := m.Finish(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
