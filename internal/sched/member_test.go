package sched

import "testing"

// TestNewMemberRejectsOutOfRangePreload pins the member constructor's
// range check on the preload list, for every technique.
func TestNewMemberRejectsOutOfRangePreload(t *testing.T) {
	cfg := smallConfig(8, 10)
	for _, ti := range Techniques() {
		for _, id := range []int{-1, cfg.Objects} {
			if _, err := ti.NewMember(cfg, []int{0, id}); err == nil {
				t.Errorf("%s: preload id %d accepted", ti.Key, id)
			}
		}
	}
}

// TestNewMemberRejectsOwnArrivals pins that a member draws no arrivals
// of its own: the cluster feeds it through InjectArrival.
func TestNewMemberRejectsOwnArrivals(t *testing.T) {
	cfg := smallConfig(8, 10)
	cfg.ArrivalsPerHour = 3000
	ti, _ := TechniqueByKey("striped")
	if _, err := ti.NewMember(cfg, nil); err == nil {
		t.Error("member with its own Poisson stream accepted")
	}
}

// TestNewMemberPreloadsExactly pins that a member pre-places exactly
// its assigned objects: an empty assignment leaves the farm cold
// instead of falling back to the standalone engine's most-popular
// preload.
func TestNewMemberPreloadsExactly(t *testing.T) {
	cfg := smallConfig(8, 10)
	for _, ti := range Techniques() {
		standalone, err := ti.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if standalone.tech.uniqueResidents() == 0 {
			t.Fatalf("%s: standalone engine preloaded nothing; the cold check below proves nothing", ti.Key)
		}
		for _, preload := range [][]int{nil, {}} {
			e, err := ti.NewMember(cfg, preload)
			if err != nil {
				t.Fatal(err)
			}
			if n := e.tech.uniqueResidents(); n != 0 {
				t.Errorf("%s: empty assignment %#v preloaded %d objects", ti.Key, preload, n)
			}
		}
		e, err := ti.NewMember(cfg, []int{3, 7})
		if err != nil {
			t.Fatal(err)
		}
		if n := e.tech.uniqueResidents(); n != 2 || !e.HoldsObject(3) || !e.HoldsObject(7) {
			t.Errorf("%s: assignment {3, 7} left %d residents (holds 3: %v, 7: %v)",
				ti.Key, n, e.HoldsObject(3), e.HoldsObject(7))
		}
	}
}
