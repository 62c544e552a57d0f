package sched

import (
	"strconv"
	"strings"
	"testing"
)

// TestFigure3Schedule reproduces the exact cell pattern of Figure 3:
// three displays rotating over three clusters, with X finishing after
// two more subobjects and its slot becoming a rotating idle hole.
func TestFigure3Schedule(t *testing.T) {
	rows, err := ScheduleTable(3, 6, []ScheduledDisplay{
		{Name: "Z", IndexLabel: "k", StartCluster: 0},
		{Name: "X", IndexLabel: "i", StartCluster: 1, Remaining: 2},
		{Name: "Y", IndexLabel: "j", StartCluster: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"read Z(k+1)", "read X(i+1)", "read Y(j+1)"},
		{"read Y(j+2)", "read Z(k+2)", "read X(i+2)"},
		{"idle", "read Y(j+3)", "read Z(k+3)"},
		{"read Z(k+4)", "idle", "read Y(j+4)"},
		{"read Y(j+5)", "read Z(k+5)", "idle"},
		{"idle", "read Y(j+6)", "read Z(k+6)"},
	}
	for ti, row := range want {
		for c, cell := range row {
			if rows[ti][c] != cell {
				t.Errorf("interval %d cluster %d = %q, want %q", ti+1, c, rows[ti][c], cell)
			}
		}
	}
}

func TestScheduleTableValidation(t *testing.T) {
	if _, err := ScheduleTable(0, 5, nil); err == nil {
		t.Error("zero clusters accepted")
	}
	if _, err := ScheduleTable(3, 0, nil); err == nil {
		t.Error("zero intervals accepted")
	}
	if _, err := ScheduleTable(3, 5, []ScheduledDisplay{{Name: "A", StartCluster: 3}}); err == nil {
		t.Error("out-of-range start cluster accepted")
	}
	// Two displays on the same phase collide.
	if _, err := ScheduleTable(3, 5, []ScheduledDisplay{
		{Name: "A", StartCluster: 1},
		{Name: "B", StartCluster: 1},
	}); err == nil {
		t.Error("double-booked cluster not detected")
	}
}

func TestFigure3Rendering(t *testing.T) {
	s, err := Figure3(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CLUSTER 0", "read Z(k+1)", "read X(i+2)", "idle"} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure 3 missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "read X(i+3)") {
		t.Error("X displayed past its final subobject")
	}
}

// TestFigure7Timeline reproduces the Figure 7 cell sequence: interval
// 1 on disk 0 reads X0 and Y0, transmitting X0a, then X0b and Y0a;
// interval 2 on disk 1 additionally transmits the buffered Y0b.
func TestFigure7Timeline(t *testing.T) {
	acts, peak, err := LowBandwidthPair(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The scheme needs only one buffered half-subobject at a time.
	if peak != 1 {
		t.Fatalf("peak buffers = %d, want 1 half-subobject", peak)
	}
	find := func(interval, half int) HalfAction {
		for _, a := range acts {
			if a.Interval == interval && a.Half == half {
				return a
			}
		}
		t.Fatalf("no action at interval %d half %d", interval, half)
		return HalfAction{}
	}
	a := find(0, 0)
	if a.Read != "X0" || a.Disk != 0 || len(a.Xmit) != 1 || a.Xmit[0] != "X0a" {
		t.Errorf("interval 1 first half = %+v", a)
	}
	b := find(0, 1)
	if b.Read != "Y0" || b.Xmit[0] != "X0b" || b.Xmit[1] != "Y0a" {
		t.Errorf("interval 1 second half = %+v", b)
	}
	c := find(1, 0)
	if c.Disk != 1 || c.Read != "X1" {
		t.Errorf("interval 2 must move to disk 1: %+v", c)
	}
	// Y0b is transmitted during interval 2's first half, from buffer.
	foundY0b := false
	for _, x := range c.Xmit {
		if x == "Y0b" {
			foundY0b = true
		}
	}
	if !foundY0b {
		t.Errorf("Y0b not drained in interval 2: %+v", c)
	}
}

// TestLowBandwidthContinuity checks that every half-subobject of both
// objects is transmitted exactly once, in order — hiccup-free delivery
// at half disk bandwidth.
func TestLowBandwidthContinuity(t *testing.T) {
	const n = 12
	acts, _, err := LowBandwidthPair(4, n)
	if err != nil {
		t.Fatal(err)
	}
	var xmits []string
	for _, a := range acts {
		xmits = append(xmits, a.Xmit...)
	}
	seen := map[string]int{}
	for _, x := range xmits {
		seen[x]++
	}
	for i := 0; i < n; i++ {
		for _, suffix := range []string{"a", "b"} {
			for _, obj := range []string{"X", "Y"} {
				key := obj + strconv.Itoa(i) + suffix
				if seen[key] != 1 {
					t.Errorf("half-subobject %s transmitted %d times", key, seen[key])
				}
			}
		}
	}
	// X halves must appear in order.
	last := -1
	for _, x := range xmits {
		if strings.HasPrefix(x, "X") && strings.HasSuffix(x, "a") {
			i, err := strconv.Atoi(x[1 : len(x)-1])
			if err != nil {
				t.Fatalf("bad xmit label %q", x)
			}
			if i <= last {
				t.Fatalf("X halves out of order: %v", xmits)
			}
			last = i
		}
	}
}

func TestLowBandwidthValidation(t *testing.T) {
	if _, _, err := LowBandwidthPair(0, 5); err == nil {
		t.Error("zero disks accepted")
	}
	if _, _, err := LowBandwidthPair(3, 0); err == nil {
		t.Error("zero subobjects accepted")
	}
}

func TestFigure7Rendering(t *testing.T) {
	s, err := Figure7(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Disk 0", "Read X0", "Xmit X0a", "Xmit X0b", "Xmit Y0a", "Xmit Y0b", "Read Y2"} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure 7 missing %q:\n%s", want, s)
		}
	}
}

func BenchmarkLowBandwidthPair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := LowBandwidthPair(8, 64); err != nil {
			b.Fatal(err)
		}
	}
}
