package cache

import (
	"math"
	"testing"
)

func testSpec() *Spec {
	return &Spec{BudgetBytes: 100, BatchWindow: 8}
}

func flatBytes(int) int64 { return 40 }

// pendingCount returns how many requests are batched behind obj.
func pendingCount(tr *Tier, obj int) int {
	if i := tr.slot[obj]; i >= 0 {
		return len(tr.slots[i].pending)
	}
	return 0
}

func TestSpecEnabled(t *testing.T) {
	var nilSpec *Spec
	if nilSpec.Enabled() {
		t.Fatal("nil spec must be disabled")
	}
	if (&Spec{}).Enabled() {
		t.Fatal("zero spec must be disabled")
	}
	if !(&Spec{BudgetBytes: 1}).Enabled() {
		t.Fatal("budget alone must enable")
	}
	if !(&Spec{BatchWindow: 1}).Enabled() {
		t.Fatal("batch window alone must enable")
	}
}

func TestSpecValidate(t *testing.T) {
	var nilSpec *Spec
	if err := nilSpec.Validate(); err != nil {
		t.Fatalf("nil spec: %v", err)
	}
	good := []Spec{{}, {BudgetBytes: 1 << 20, BatchWindow: 8}}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", s, err)
		}
	}
	bad := []Spec{{BudgetBytes: -1}, {BatchWindow: -1}}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v: expected error", s)
		}
	}
}

func TestAdmissionRespectsBudget(t *testing.T) {
	tr := NewTier(testSpec(), 8, 4, nil, 1, flatBytes, 30)
	tr.Reference(0, 0)
	tr.Reference(1, 0)
	tr.Reference(0, 1)
	tr.Reference(1, 1)
	if !tr.Resident(0) || !tr.Resident(1) {
		t.Fatal("first two objects should pin (80 <= 100)")
	}
	// A third 40-byte prefix does not fit, and a single reference must
	// not displace residents referenced twice, only just before it.
	tr.Reference(2, 2)
	if tr.Resident(2) {
		t.Fatal("one reference must not displace residents referenced twice")
	}
	if tr.Used() != 80 || len(tr.heap) != 2 {
		t.Fatalf("used=%d residents=%d, want 80/2", tr.Used(), len(tr.heap))
	}
}

func TestPopularityDisplacesColdest(t *testing.T) {
	tr := NewTier(testSpec(), 8, 4, nil, 1, flatBytes, 30)
	tr.Reference(0, 0)
	tr.Reference(1, 1)
	// Heat object 2; it should evict the coldest resident.  Objects 0
	// and 1 hold one reference each, and object 0's is the older, so
	// decayed to now it is the colder.
	tr.Reference(2, 2)
	tr.Reference(2, 3)
	tr.Reference(2, 4)
	if !tr.Resident(2) {
		t.Fatal("hot object should displace a cold resident")
	}
	if tr.Resident(0) {
		t.Fatal("coldest resident (object 0) should have been evicted")
	}
	if !tr.Resident(1) {
		t.Fatal("object 1 should survive")
	}
}

// TestStaleResidentLosesToNewcomer pins that residents are compared at
// one instant: a resident referenced five times and then left idle for
// 20 half-lives is colder today than a newcomer referenced once, and
// colder than a resident referenced once just now.
func TestStaleResidentLosesToNewcomer(t *testing.T) {
	const h = 30
	tr := NewTier(testSpec(), 8, 4, nil, 1, flatBytes, h)
	for i := 0; i < 5; i++ {
		tr.Reference(0, i)
	}
	idle := 4 + 20*h
	tr.Reference(1, idle-4)
	if !tr.Resident(0) || !tr.Resident(1) {
		t.Fatal("first two objects should pin (80 <= 100)")
	}
	tr.Reference(2, idle)
	if tr.Resident(0) || !tr.Resident(1) || !tr.Resident(2) {
		t.Fatalf("resident 0,1,2 = %v,%v,%v, want false,true,true: the stale resident must be the victim",
			tr.Resident(0), tr.Resident(1), tr.Resident(2))
	}
}

// TestForwardDecayMatchesDirectSum pins the forward-decayed score
// against its definition: S·2^(−(now−L)/h) is Σ 2^((t_i−now)/h) over
// the object's references t_i, within 1e-12 relative, across several
// rescales of the landmark.
func TestForwardDecayMatchesDirectSum(t *testing.T) {
	const h = 5
	tr := NewTier(testSpec(), 3, 4, nil, 1, flatBytes, h)
	refs := make([][]int, 3)
	rescales := 0
	for now := 0; now < 8*rescaleAt*h; now += 3 {
		obj := now % 3
		if now%21 == 0 {
			continue // leave gaps, so the objects' histories differ
		}
		land := tr.landmark
		tr.Reference(obj, now)
		refs[obj] = append(refs[obj], now)
		if tr.landmark != land {
			rescales++
		}
		for id, ts := range refs {
			if len(ts) == 0 {
				continue
			}
			want := 0.0
			for _, ti := range ts {
				want += math.Exp2(float64(ti-now) / h)
			}
			got := tr.score[id] * math.Exp2(-(float64(now)-tr.landmark)/h)
			if math.Abs(got-want) > 1e-12*want {
				t.Fatalf("interval %d, object %d: decayed score %v, direct sum %v", now, id, got, want)
			}
		}
	}
	if rescales < 2 {
		t.Fatalf("%d rescales over the run, want at least 2", rescales)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestOversizedObjectNeverPins(t *testing.T) {
	tr := NewTier(testSpec(), 4, 4, nil, 1, func(int) int64 { return 1000 }, 30)
	for i := 0; i < 10; i++ {
		tr.Reference(0, i)
	}
	if tr.Resident(0) || tr.Used() != 0 {
		t.Fatal("object larger than the whole budget must never pin")
	}
}

func TestAttachGapConditions(t *testing.T) {
	tr := NewTier(testSpec(), 4, 4, nil, 1, flatBytes, 30)
	tr.Reference(0, 0) // resident
	tr.SetLeader(0, 7, 10, 50, 2)
	if _, ok := tr.AttachGap(0, 10, 8); ok {
		t.Fatal("gap 0 must not attach (same interval joins as pending)")
	}
	if _, ok := tr.AttachGap(0, 11, 8); ok {
		t.Fatal("gap below leader Tmax must not attach")
	}
	gap, ok := tr.AttachGap(0, 13, 8)
	if !ok || gap != 3 {
		t.Fatalf("gap 3 should attach, got %d,%v", gap, ok)
	}
	if _, ok := tr.AttachGap(0, 15, 8); ok {
		t.Fatal("gap beyond prefix length must not attach")
	}
	if _, ok := tr.AttachGap(0, 13, 2); ok {
		t.Fatal("gap beyond batch window must not attach")
	}
	if _, ok := tr.AttachGap(0, 60, 64); ok {
		t.Fatal("dead leader must not attach")
	}
	// Non-resident prefix: followers have nothing to catch up from.
	tr.SetLeader(1, 3, 10, 50, 0)
	if _, ok := tr.AttachGap(1, 12, 8); ok {
		t.Fatal("non-resident prefix must not attach")
	}
}

func TestDetachIfLeader(t *testing.T) {
	tr := NewTier(testSpec(), 4, 4, nil, 1, flatBytes, 30)
	tr.SetLeader(0, 7, 10, 50, 0)
	tr.AddFollower(0, 3)
	tr.AddFollower(0, 5)
	tr.RemoveFollower(0, 3, 12)
	if buf, ok := tr.DetachIfLeader(0, 9, 20, nil); ok || len(buf) != 0 {
		t.Fatal("non-leader station must not detach")
	}
	buf, ok := tr.DetachIfLeader(0, 7, 20, nil)
	if !ok || len(buf) != 1 || buf[0] != 5 {
		t.Fatalf("detach got %v,%v; want [5],true", buf, ok)
	}
	if _, ok := tr.AttachGap(0, 11, 8); ok {
		t.Fatal("leader must be dead after detach")
	}
	if buf, ok := tr.DetachIfLeader(0, 7, 20, nil); ok || len(buf) != 0 {
		t.Fatal("second detach must be a no-op")
	}
}

func TestPendingRoundTrip(t *testing.T) {
	tr := NewTier(testSpec(), 4, 4, nil, 1, flatBytes, 30)
	tr.AddPending(2, 9, 100)
	tr.AddPending(2, 11, 101)
	if pendingCount(tr, 2) != 2 {
		t.Fatalf("pending = %d", pendingCount(tr, 2))
	}
	got := tr.TakePending(2, nil)
	if len(got) != 2 || got[0] != (Pending{9, 100}) || got[1] != (Pending{11, 101}) {
		t.Fatalf("TakePending = %v", got)
	}
	if pendingCount(tr, 2) != 0 {
		t.Fatal("TakePending must drain")
	}
	if got := tr.TakePending(2, got[:0]); len(got) != 0 {
		t.Fatal("second take must be empty")
	}
}

func TestSetLeaderSupersedesFollowers(t *testing.T) {
	tr := NewTier(testSpec(), 4, 4, nil, 1, flatBytes, 30)
	tr.SetLeader(0, 7, 10, 50, 0)
	tr.AddFollower(0, 3)
	tr.SetLeader(0, 8, 20, 60, 0)
	buf, ok := tr.DetachIfLeader(0, 8, 25, nil)
	if !ok || len(buf) != 0 {
		t.Fatalf("superseding leader must start with no followers, got %v,%v", buf, ok)
	}
}

// TestFlush pins that a flushed tier is the built tier: nothing pinned,
// no leader to attach to, nothing pending, and no popularity carried
// over, so a prefix that was hot before the flush competes as a
// newcomer would.
func TestFlush(t *testing.T) {
	tr := NewTier(testSpec(), 8, 4, nil, 1, flatBytes, 30)
	for i := 0; i < 5; i++ {
		tr.Reference(0, i)
	}
	tr.Reference(1, 4)
	tr.SetLeader(0, 7, 2, 50, 0)
	tr.AddFollower(0, 3)
	tr.AddPending(1, 9, 4)
	tr.Flush()
	if len(tr.heap) != 0 || tr.Used() != 0 || tr.Resident(0) || tr.Resident(1) {
		t.Fatalf("after Flush: residents=%d used=%d, want none", len(tr.heap), tr.Used())
	}
	if objs := tr.PendingObjects(nil); len(objs) != 0 || pendingCount(tr, 1) != 0 {
		t.Fatalf("after Flush: pending objects %v", objs)
	}
	// Re-pin both prefixes; object 0's leader window would still cover
	// a gap of 4 had the flush kept it.
	tr.Reference(0, 5)
	tr.Reference(1, 5)
	if _, ok := tr.AttachGap(0, 6, 8); ok {
		t.Fatal("after Flush: a request attached to the pre-flush leader")
	}
	if buf, ok := tr.DetachIfLeader(0, 7, 6, nil); ok || len(buf) != 0 {
		t.Fatalf("after Flush: leader still live, detach got %v,%v", buf, ok)
	}
	// Object 2's references out-score one reference an interval older.
	// With the pre-flush scores object 0 (five references) would outlast
	// object 1; from a cold start both hold one reference at interval 5,
	// and the tie evicts the lower id, object 0.
	tr.Reference(2, 6)
	tr.Reference(2, 6)
	if tr.Resident(0) || !tr.Resident(1) || !tr.Resident(2) {
		t.Fatalf("after Flush: resident 0,1,2 = %v,%v,%v, want false,true,true",
			tr.Resident(0), tr.Resident(1), tr.Resident(2))
	}
}
