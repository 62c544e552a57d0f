package policy

import (
	"testing"
	"testing/quick"
)

func TestLFUVictim(t *testing.T) {
	l := NewLFU()
	for i := 0; i < 5; i++ {
		l.Touch(1)
	}
	for i := 0; i < 3; i++ {
		l.Touch(2)
	}
	l.Touch(3)

	v, ok := l.Victim([]int{1, 2, 3})
	if !ok || v != 3 {
		t.Fatalf("victim = %d,%v, want 3 (least frequent)", v, ok)
	}
	// Never-touched object loses to touched ones.
	v, ok = l.Victim([]int{1, 99})
	if !ok || v != 99 {
		t.Fatalf("victim = %d,%v, want untouched 99", v, ok)
	}
	if _, ok := l.Victim(nil); ok {
		t.Fatal("victim of empty candidate set")
	}
}

func TestLFUVictimTieBreak(t *testing.T) {
	l := NewLFU()
	l.Touch(7)
	l.Touch(4)
	// Equal counts: the larger (younger) id goes first.
	v, ok := l.Victim([]int{7, 4})
	if !ok || v != 7 {
		t.Fatalf("tie broke to %d, want youngest id 7", v)
	}
}

func TestLFUCounts(t *testing.T) {
	l := NewLFU()
	if l.Count(9) != 0 {
		t.Fatal("fresh count not zero")
	}
	l.Touch(9)
	l.Touch(9)
	if l.Count(9) != 2 {
		t.Fatal("count wrong")
	}
}

// Property: the victim always has the minimum count among candidates.
func TestLFUVictimIsMinimum(t *testing.T) {
	err := quick.Check(func(touches []uint8, cands []uint8) bool {
		if len(cands) == 0 {
			return true
		}
		l := NewLFU()
		for _, id := range touches {
			l.Touch(int(id % 16))
		}
		candidates := make([]int, 0, len(cands))
		seen := map[int]bool{}
		for _, c := range cands {
			id := int(c % 16)
			if !seen[id] {
				seen[id] = true
				candidates = append(candidates, id)
			}
		}
		v, ok := l.Victim(candidates)
		if !ok {
			return false
		}
		for _, id := range candidates {
			if l.Count(id) < l.Count(v) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReplicationTarget(t *testing.T) {
	r := DefaultReplication() // theta = 3
	cases := []struct {
		share       float64
		concurrency int
		want        int
	}{
		{0.10, 16, 5}, // hot object, 16 stations
		{0.05, 16, 3},
		{0.001, 200, 1},
		{0, 200, 1}, // resident objects keep one replica
		{0.5, 2, 3}, // ceil(3*0.5*2)
		{1.0, 16, 48},
	}
	for _, c := range cases {
		if got := r.Target(c.share, c.concurrency); got != c.want {
			t.Errorf("Target(%v, %d) = %d, want %d", c.share, c.concurrency, got, c.want)
		}
	}
}

func TestReplicationTargetPanicsOnBadShare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("share > 1 did not panic")
		}
	}()
	DefaultReplication().Target(1.5, 10)
}

func TestShouldReplicate(t *testing.T) {
	r := DefaultReplication()
	cases := []struct {
		waiters, replicas, target int
		want                      bool
	}{
		{0, 1, 5, false}, // nobody waiting
		{1, 1, 5, true},
		{1, 5, 5, false}, // at target
		{1, 6, 5, false}, // above target
		{3, 0, 5, false}, // not resident: materialization path instead
	}
	for _, c := range cases {
		if got := r.ShouldReplicate(c.waiters, c.replicas, c.target); got != c.want {
			t.Errorf("ShouldReplicate(%d,%d,%d) = %v, want %v",
				c.waiters, c.replicas, c.target, got, c.want)
		}
	}
}

func TestShouldReplicateBounded(t *testing.T) {
	// Replica counts can never be driven past the target: the
	// anti-storm property.
	r := DefaultReplication()
	err := quick.Check(func(w, rep, tgt uint8) bool {
		waiters, replicas, target := int(w%64), int(rep%16)+1, int(tgt%16)+1
		if replicas >= target && r.ShouldReplicate(waiters, replicas, target) {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTargetMonotoneInShare(t *testing.T) {
	r := Replication{Theta: 1.5}
	err := quick.Check(func(a, b uint8) bool {
		s1, s2 := float64(a)/255, float64(b)/255
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		return r.Target(s1, 100) <= r.Target(s2, 100)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
