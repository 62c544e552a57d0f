package fault

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestEmptyPlan(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() || len(nilPlan.Events()) != 0 || nilPlan.Events() != nil {
		t.Fatal("nil plan should be empty")
	}
	if err := nilPlan.Validate(10); err != nil {
		t.Fatalf("nil plan Validate: %v", err)
	}
	p := NewPlan()
	if !p.Empty() || len(p.Events()) != 0 {
		t.Fatal("fresh plan should be empty")
	}
	if got, err := Parse("  "); err != nil || !got.Empty() {
		t.Fatalf("blank string should parse to empty plan, got %v, %v", got, err)
	}
}

func TestBuildersAndSort(t *testing.T) {
	p := NewPlan().
		TertiaryOutage(50, 80).
		FailDiskUntil(3, 10, 40).
		SlowDisk(1, 5, 20).
		FailDisk(7, 10)
	want := []Event{
		{At: 5, Kind: SlowStart, Disk: 1},
		{At: 10, Kind: DiskFail, Disk: 3},
		{At: 10, Kind: DiskFail, Disk: 7},
		{At: 20, Kind: SlowEnd, Disk: 1},
		{At: 40, Kind: DiskRepair, Disk: 3},
		{At: 50, Kind: TertiaryFail, Disk: -1},
		{At: 80, Kind: TertiaryRepair, Disk: -1},
	}
	if got := p.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Events() = %v, want %v", got, want)
	}
	if err := p.Validate(8); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := p.Validate(7); err == nil {
		t.Fatal("disk 7 should be out of range for a 7-disk farm")
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	p := NewPlan().FailDisk(0, 5).FailDisk(1, 1)
	a := p.Events()
	a[0].Disk = 99
	if b := p.Events(); b[0].Disk != 1 {
		t.Fatalf("Events() must copy; plan mutated to %v", b)
	}
}

// TestWearInvalidMeanIsAnError pins that a wear process with a mean
// that is not positive and finite schedules nothing and leaves
// ErrWearMean on the plan, where both validations, and both halves of
// a split, return it instead of the builder panicking.  The first
// build error stays.
func TestWearInvalidMeanIsAnError(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []struct {
			name  string
			build func(mttf, mttr float64) *Plan
		}{
			{"wear", func(mttf, mttr float64) *Plan {
				return NewPlan().FailDisk(0, 5).WearProcess([]int{0, 1}, mttf, mttr, 1000, 7)
			}},
			{"server wear", func(mttf, mttr float64) *Plan {
				return NewPlan().FailDisk(0, 5).ServerWearProcess([]int{0, 1}, mttf, mttr, 1000, 7)
			}},
		} {
			for _, p := range []*Plan{c.build(bad, 10), c.build(50, bad)} {
				if p.Empty() || len(p.Events()) != 1 {
					t.Fatalf("%s with mean %v: %d events, empty %v; want the one event before it, not empty", c.name, bad, len(p.Events()), p.Empty())
				}
				member, server := p.SplitServerScope()
				for what, err := range map[string]error{
					"Validate":                      p.Validate(8),
					"ValidateServers":               p.ValidateServers(2),
					"member part's Validate":        member.Validate(8),
					"server part's ValidateServers": server.ValidateServers(2),
				} {
					if !errors.Is(err, ErrWearMean) {
						t.Errorf("%s with mean %v: %s returned %v, want ErrWearMean", c.name, bad, what, err)
					}
				}
			}
		}
	}
	p := NewPlan().WearProcess([]int{0}, 0, 10, 100, 1).ServerWearProcess([]int{0}, 50, -1, 100, 1)
	if err := p.Validate(8); err == nil || !errors.Is(err, ErrWearMean) || err.Error() != "fault: wear means must be positive and finite: disk-fail mttf 0, mttr 10" {
		t.Fatalf("two bad wear calls: Validate returned %v, want the first", err)
	}
}

func TestWearProcessDeterministic(t *testing.T) {
	build := func() []Event {
		return NewPlan().WearProcess([]int{0, 1, 2}, 50, 10, 1000, 7).Events()
	}
	a, b := build(), build()
	if len(a) == 0 {
		t.Fatal("wear process over 1000 intervals with MTTF 50 produced no events")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("wear process is not deterministic for a fixed seed")
	}
	// Per disk the sequence must alternate fail/repair, strictly
	// increasing in time, inside the horizon.
	perDisk := map[int][]Event{}
	for _, ev := range a {
		perDisk[ev.Disk] = append(perDisk[ev.Disk], ev)
	}
	for d, evs := range perDisk {
		last := -1
		for i, ev := range evs {
			wantKind := DiskFail
			if i%2 == 1 {
				wantKind = DiskRepair
			}
			if ev.Kind != wantKind {
				t.Fatalf("disk %d event %d: kind %v, want %v", d, i, ev.Kind, wantKind)
			}
			if ev.At <= last || ev.At >= 1000 {
				t.Fatalf("disk %d event %d at %d: not strictly increasing inside horizon (prev %d)", d, i, ev.At, last)
			}
			last = ev.At
		}
	}
	if c := NewPlan().WearProcess([]int{0, 1, 2}, 50, 10, 1000, 8).Events(); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical wear schedules")
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("fail:3@500; fail:4@100-200; slow:7@200-400; tert@1000-1500")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{At: 100, Kind: DiskFail, Disk: 4},
		{At: 200, Kind: DiskRepair, Disk: 4},
		{At: 200, Kind: SlowStart, Disk: 7},
		{At: 400, Kind: SlowEnd, Disk: 7},
		{At: 500, Kind: DiskFail, Disk: 3},
		{At: 1000, Kind: TertiaryFail, Disk: -1},
		{At: 1500, Kind: TertiaryRepair, Disk: -1},
	}
	if got := p.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Events() = %v, want %v", got, want)
	}

	w, err := Parse("wear:0-2@mttf=50,mttr=10,until=1000,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	direct := NewPlan().WearProcess([]int{0, 1, 2}, 50, 10, 1000, 7)
	if !reflect.DeepEqual(w.Events(), direct.Events()) {
		t.Fatal("parsed wear clause disagrees with direct WearProcess call")
	}

	bad := []string{
		"fail:3",                           // missing @AT
		"fail:x@5",                         // bad disk
		"fail:3@9-5",                       // window end before start
		"slow:2@100",                       // slow needs a window
		"tert@100",                         // outage needs a window
		"wear:0-2@mttf=50",                 // missing mttr/until
		"wear:0-2@mttf=50,mttr=0,until=10", // non-positive mttr
		"frob:1@2",                         // unknown clause
		"fail:1@2 extra",                   // trailing junk inside the clause
		"wear:0@mttf=NaN,mttr=1,until=10",  // non-finite means
		"wear:0@mttf=1,mttr=NaN,until=10",
		"wear:0@mttf=Inf,mttr=1,until=10",
		"wear:0@mttf=1,mttr=+Inf,until=10",
		"wear:0@mttf=-Inf,mttr=1,until=10",
		"server:wear:0@mttf=NaN,mttr=1,until=10",
		"server:wear:0@mttf=Inf,mttr=1,until=10",
		"wear:0-999999999@mttf=50,mttr=10,until=10", // range would allocate gigabytes
		"wear:0@mttf=1,mttr=1,until=999999999",      // ~1e9 events
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

// FuzzParse: any string compiles to a plan or an error, never a panic
// or a runaway allocation, and a plan's events come out time-sorted.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"",
		"fail:3@500; fail:4@100-200; slow:7@200-400; tert@1000-1500",
		"wear:0-2@mttf=50,mttr=10,until=1000,seed=7",
		"server:1@2000; server:0@10-20; server:wear:0-3@mttf=500,mttr=50,until=3000",
		"wear:0@mttf=NaN,mttr=1,until=10",
		"wear:0@mttf=1e300,mttr=1,until=9223372036854775807",
		"wear:0-999999999@mttf=50,mttr=10,until=10",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if (p == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of plan and error", s, p, err)
		}
		if err != nil {
			return
		}
		evs := p.Events()
		if len(evs) != len(p.events) {
			t.Fatalf("Events() has %d events, the plan %d", len(evs), len(p.events))
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].At < evs[i-1].At {
				t.Fatalf("events out of order at %d: %v", i, evs)
			}
		}
	})
}

// TestParseServerClauses pins the server-scope grammar: one-shot
// kills, kill+restart windows, and the member-granularity wear
// process, all mixable with disk clauses in one string.
func TestParseServerClauses(t *testing.T) {
	p, err := Parse("server:1@300; server:2@100-250; fail:3@50")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{At: 50, Kind: DiskFail, Disk: 3},
		{At: 100, Kind: ServerFail, Disk: 2},
		{At: 250, Kind: ServerRepair, Disk: 2},
		{At: 300, Kind: ServerFail, Disk: 1},
	}
	if got := p.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Events() = %v, want %v", got, want)
	}

	w, err := Parse("server:wear:0-2@mttf=50,mttr=10,until=1000,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	direct := NewPlan().ServerWearProcess([]int{0, 1, 2}, 50, 10, 1000, 7)
	if !reflect.DeepEqual(w.Events(), direct.Events()) {
		t.Fatal("parsed server wear clause disagrees with direct ServerWearProcess call")
	}
	// The member process draws from its own stream family: the same
	// parameters must not replay the disk wear schedule.
	disk := NewPlan().WearProcess([]int{0, 1, 2}, 50, 10, 1000, 7)
	same := true
	for i, ev := range w.Events() {
		if dv := disk.Events()[i]; ev.At != dv.At {
			same = false
			break
		}
	}
	if same {
		t.Fatal("server wear replayed the disk wear schedule — streams not split")
	}

	bad := []string{
		"server:1",                // missing @AT
		"server:x@5",              // bad member
		"server:1@9-5",            // restart before kill
		"server:wear:0-2@mttf=50", // missing mttr/until
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

// TestServerScopeValidationAndSplit pins the scope fence: a member
// plan rejects server events, a server plan rejects disk events and
// out-of-range members, and SplitServerScope partitions a mixed plan
// cleanly without mutating it.
func TestServerScopeValidationAndSplit(t *testing.T) {
	mixed, err := Parse("fail:3@50; server:1@300-400; tert@100-200")
	if err != nil {
		t.Fatal(err)
	}
	if err := mixed.Validate(10); err == nil {
		t.Error("member-scope Validate accepted a server event")
	}
	if err := mixed.ValidateServers(4); err == nil {
		t.Error("server-scope Validate accepted a disk event")
	}

	member, server := mixed.SplitServerScope()
	if err := member.Validate(10); err != nil {
		t.Errorf("split member plan invalid: %v", err)
	}
	if err := server.ValidateServers(4); err != nil {
		t.Errorf("split server plan invalid: %v", err)
	}
	wantMember := []Event{
		{At: 50, Kind: DiskFail, Disk: 3},
		{At: 100, Kind: TertiaryFail, Disk: -1},
		{At: 200, Kind: TertiaryRepair, Disk: -1},
	}
	wantServer := []Event{
		{At: 300, Kind: ServerFail, Disk: 1},
		{At: 400, Kind: ServerRepair, Disk: 1},
	}
	if got := member.Events(); !reflect.DeepEqual(got, wantMember) {
		t.Errorf("member part = %v, want %v", got, wantMember)
	}
	if got := server.Events(); !reflect.DeepEqual(got, wantServer) {
		t.Errorf("server part = %v, want %v", got, wantServer)
	}
	if len(mixed.Events()) != 5 {
		t.Errorf("split mutated the source plan: %d events left", len(mixed.Events()))
	}

	if err := server.ValidateServers(1); err == nil {
		t.Error("member 1 should be out of range for a 1-member cluster")
	}
	empty, srv := NewPlan().SplitServerScope()
	if !empty.Empty() || !srv.Empty() {
		t.Error("splitting an empty plan should yield two empty plans")
	}
}
