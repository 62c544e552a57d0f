package sched

import (
	"errors"
	"testing"
)

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

// TestKillReviveMisuse pins the failover surface's four misuses as
// sentinel errors that leave the engine as it was: killing a dead or a
// closed-loop engine, reviving a live one, and reviving before the kill
// interval.
func TestKillReviveMisuse(t *testing.T) {
	cfg := smallConfig(8, 10)
	ti, _ := TechniqueByKey("striped")
	// killedMember returns a member killed at interval 3.
	killedMember := func(t *testing.T) *Engine {
		e, err := ti.NewMember(cfg, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		e.Prime()
		for e.now < 3 {
			e.StepOne()
		}
		if _, err := e.Kill(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	cases := []struct {
		name     string
		misuse   func(t *testing.T) (*Engine, error)
		want     error
		wantDead bool
	}{
		{"kill dead", func(t *testing.T) (*Engine, error) {
			e := killedMember(t)
			_, err := e.Kill()
			return e, err
		}, ErrKillDead, true},
		{"kill closed loop", func(t *testing.T) (*Engine, error) {
			e, err := ti.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = e.Kill()
			return e, err
		}, ErrKillClosedLoop, false},
		{"revive live", func(t *testing.T) (*Engine, error) {
			e := killedMember(t)
			if err := e.Revive(e.now); err != nil {
				t.Fatal(err)
			}
			return e, e.Revive(e.now)
		}, ErrReviveLive, false},
		{"revive early", func(t *testing.T) (*Engine, error) {
			e := killedMember(t)
			return e, e.Revive(e.now - 1)
		}, ErrReviveEarly, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := c.misuse(t)
			if !errors.Is(err, c.want) {
				t.Fatalf("got error %v, want %v", err, c.want)
			}
			if e.Dead() != c.wantDead {
				t.Fatalf("engine dead = %v after the refused call, want %v", e.Dead(), c.wantDead)
			}
		})
	}
}
